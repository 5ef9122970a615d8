package lit

import "leaveintime/internal/scenarios"

// This file re-exports the paper's experiment harness (Section 3
// simulations and Section 4 comparisons) through the public API. Each
// runner is deterministic in (duration, seed) and its result's Format
// method prints the series the corresponding paper figure plots.

// Fig7AOffValues are the seven mean OFF durations (seconds) swept by
// RunFig7; RunFig7Observed's registries slice is indexed the same way.
var Fig7AOffValues = scenarios.AOffValues

// Experiment results.
type (
	// Fig7Result is the Figure 7 sweep (MIX, ON-OFF, max delay and
	// jitter versus mean OFF period).
	Fig7Result = scenarios.Fig7Result
	// Fig8Result covers Figures 8, 12 and 13 (jitter control and
	// buffer distributions in the CROSS configuration).
	Fig8Result = scenarios.Fig8Result
	// DistResult covers Figures 9-11 (delay distribution versus the
	// ineq. 16 bounds).
	DistResult = scenarios.DistResult
	// Fig14Result covers Figures 14-17 (two delay classes under
	// admission control procedure 2).
	Fig14Result = scenarios.Fig14Result
	// StopAndGoComparison is the Section 4 Leave-in-Time versus
	// Stop-and-Go bound comparison.
	StopAndGoComparison = scenarios.Section4StopAndGo
	// PGPSComparison checks eq. 15 against the PGPS bound.
	PGPSComparison = scenarios.Section4PGPS
	// SaturationResult demonstrates scheduler saturation when d is set
	// below what inequality (19) permits.
	SaturationResult = scenarios.SaturationResult
)

// RunFig7 reproduces Figure 7 (the paper runs 300 s).
func RunFig7(duration float64, seed uint64) Fig7Result {
	return scenarios.RunFig7(duration, seed)
}

// RunFig7Observed is RunFig7 with telemetry: registries[i], when
// non-nil, observes sweep point i (the points run concurrently, so each
// needs its own registry). A nil or short slice leaves the remaining
// points uninstrumented. The figure output is identical either way.
func RunFig7Observed(duration float64, seed uint64, registries []*MetricsRegistry) Fig7Result {
	return scenarios.RunFig7Observed(duration, seed, registries)
}

// RunFig8Observed reproduces Figures 8, 12 and 13 (the paper runs
// 600 s), with telemetry counted into reg when it is non-nil. The
// figure output is identical either way.
func RunFig8Observed(duration float64, seed uint64, reg *MetricsRegistry) *Fig8Result {
	return scenarios.RunFig8Observed(duration, seed, reg)
}

// RunFig9 reproduces Figure 9 (600 s in the paper).
func RunFig9(duration float64, seed uint64) *DistResult {
	return scenarios.RunFig9(duration, seed)
}

// RunFig10 reproduces Figure 10.
func RunFig10(duration float64, seed uint64) *DistResult {
	return scenarios.RunFig10(duration, seed)
}

// RunFig11 reproduces Figure 11.
func RunFig11(duration float64, seed uint64) *DistResult {
	return scenarios.RunFig11(duration, seed)
}

// RunFig14to17 reproduces Figures 14-17 under admission control
// procedure proc (2 for the paper's main run, 1 for the comparison its
// text describes). The paper runs 300 s per sweep point.
func RunFig14to17(duration float64, seed uint64, proc int) *Fig14Result {
	return scenarios.RunFig14to17(duration, seed, proc)
}

// RunStopAndGoComparison computes the Section 4 worked example for
// frame time t, capacity c and n hops.
func RunStopAndGoComparison(t, c float64, n int) StopAndGoComparison {
	return scenarios.RunSection4StopAndGo(t, c, n)
}

// RunPGPSComparison computes eq. 15 and the PGPS bound for a
// (rate, b0) session of packet length lPkt over n hops of capacity c
// and propagation gamma; the two must coincide.
func RunPGPSComparison(rate, b0, lPkt, c, gamma float64, n int) PGPSComparison {
	return scenarios.RunSection4PGPS(rate, b0, lPkt, c, gamma, n)
}

// PerHopResult decomposes the Figure 8 scenario's delay hop by hop
// via packet tracing.
type PerHopResult = scenarios.PerHopResult

// RunPerHop runs the Figure 8 scenario with tracing enabled and
// reduces the trace to per-hop delay statistics.
func RunPerHop(duration float64, seed uint64) *PerHopResult {
	return scenarios.RunPerHop(duration, seed)
}

// ResultJSON serializes an experiment result (e.g. *Fig8Result,
// *DistResult) into indented JSON for external plotting tools.
func ResultJSON(result any) ([]byte, error) { return scenarios.JSON(result) }

// CallBlockingResult measures admission control at the connection
// level against Erlang B.
type CallBlockingResult = scenarios.CallBlockingResult

// RunCallBlocking simulates Poisson call arrivals with exponential
// holding times against one T1 trunk guarded by admission control
// procedure 1, with every carried call generating real voice traffic.
func RunCallBlocking(duration float64, seed uint64, offered, hold float64) *CallBlockingResult {
	return scenarios.RunCallBlocking(duration, seed, offered, hold)
}

// UPSResult is the UPS replay experiment: the delivery schedules of
// the baseline disciplines replayed from slack carried in the packet
// header, by LSTF and by jitter-controlled Leave-in-Time.
type UPSResult = scenarios.UPSResult

// RunUPS records each baseline discipline's delivery schedule over a
// fixed tandem population and measures how closely LSTF and LiT
// reproduce it (Mittal et al., NSDI 2016).
func RunUPS(duration float64, seed uint64) *UPSResult {
	return scenarios.RunUPS(duration, seed)
}

// ComparisonResult is the live Section 4 comparison: the CROSS
// scenario under every discipline, with per-discipline bounds.
type ComparisonResult = scenarios.ComparisonResult

// RunComparison runs the CROSS scenario under every discipline in the
// repository with identical traffic.
func RunComparison(duration float64, seed uint64, aOff float64) *ComparisonResult {
	return scenarios.RunComparison(duration, seed, aOff)
}

// EstablishmentResult measures connection-establishment latency when
// the MIX configuration is set up through hop-by-hop signaling.
type EstablishmentResult = scenarios.EstablishmentResult

// RunEstablishment signals all 116 MIX sessions into the Figure 6
// network with the given per-node admission processing time.
func RunEstablishment(seed uint64, processing float64) *EstablishmentResult {
	return scenarios.RunEstablishment(seed, processing)
}

// RunSaturation demonstrates scheduler saturation: n equal sessions on
// one T1 link, once with the admissible d = L/r and once with d divided
// by overcommit, measuring how far past their deadlines transmissions
// finish.
func RunSaturation(duration float64, seed uint64, n int, overcommit float64) *SaturationResult {
	return scenarios.RunSaturation(duration, seed, n, overcommit)
}

// MetroOptions parameterize the metro-scale ring-of-rings workload.
type MetroOptions = scenarios.MetroOptions

// MetroResult summarizes one metro run.
type MetroResult = scenarios.MetroResult

// RunMetro plans and runs the metro workload: hundreds of switches in
// a ring-of-rings topology, simulated serially unless Shards asks for
// more. Deterministic in the options: every shard count produces
// identical results.
func RunMetro(opt MetroOptions) (*MetroResult, error) {
	return scenarios.RunMetro(opt)
}
