package lit

import "leaveintime/internal/metrics"

// Run telemetry. A System (or a bare Network) can carry a flat
// counter/gauge registry covering every layer — the event engine,
// ports, schedulers, the packet pool, and admission control — at the
// cost of one branch per instrumented site, with no allocation on the
// packet path and no change to event ordering:
//
//	sys, _ := lit.NewSystem(lit.SystemConfig{LMax: 424})
//	reg := sys.EnableMetrics()
//	... build and run ...
//	snap := reg.Snapshot(sys.Sim.Now())
//	data, _ := json.MarshalIndent(snap, "", "  ")
//
// cmd/litsim and cmd/litrun expose the same snapshot through their
// -telemetry flag.
type (
	// MetricsRegistry is the root of a run's telemetry counters.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is the JSON-facing view of a registry at one
	// instant (utilization and pool live count derived).
	MetricsSnapshot = metrics.Snapshot
	// EngineMetrics counts event-engine activity.
	EngineMetrics = metrics.Engine
	// PortMetrics counts one port's packet flow and drops.
	PortMetrics = metrics.Port
	// SchedMetrics counts scheduler-level behavior at one port.
	SchedMetrics = metrics.Sched
	// PoolMetrics mirrors the packet pool's ownership counters.
	PoolMetrics = metrics.Pool
	// AdmissionMetrics aggregates accept/reject decisions per
	// admission control procedure.
	AdmissionMetrics = metrics.Admission
)

// NewMetricsRegistry returns an empty registry, for wiring a bare
// Network via Network.EnableMetrics (System.EnableMetrics does this
// internally).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }
