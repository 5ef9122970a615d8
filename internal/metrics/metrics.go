// Package metrics is the simulator's run-telemetry substrate: a flat,
// cache-line-padded counter arena covering the event engine, the
// network ports, the schedulers, the packet pool, the admission
// controllers, and the fault layer.
//
// The design contract is zero cost when disabled and truly free when
// enabled:
//
//   - All counters live in one flat []uint64 arena per Registry.
//     Every instrumented component resolves its slots ONCE at wiring
//     time into an *Arena plus small integer Handles; the enabled hot
//     path is a single indexed increment — no nil checks beyond the
//     one enable branch, no pointer chase through per-layer structs,
//     no map lookup, no atomic, no allocation.
//   - The arena is padded: one full cache line of unused slots at the
//     head and tail, and every section (engine, pool, admission,
//     faults, each port) starts on a cache-line boundary. Concurrent
//     sweeps run one registry per sweep point; the edge padding
//     guarantees two registries never share a cache line even when the
//     allocator places their arenas back to back — the false-sharing
//     mechanism that made the old pointer-per-layer registry halve
//     multi-core sweep throughput.
//   - Counters are uint64 slots. Integer counters use Inc/MaxUint;
//     bit/seconds accumulators store an IEEE float64 bit pattern and
//     use AddFloat (Float64bits/Float64frombits compile to plain
//     register moves, so a float add costs the same as an int add).
//     The registry inherits the simulator's single-threaded discipline
//     (one registry per simulator; concurrent sweeps use one registry
//     per sweep point).
//
// Snapshot copies the arena in one memmove and derives the JSON-facing
// view (utilization, pool live count) from the copy, so taking a
// snapshot never stalls or tears the hot loop's counters. cmd/litsim
// and cmd/litrun write it via their -telemetry flag, and lit.System
// returns it from System.EnableMetrics.
package metrics

import (
	"math"
	"sync/atomic"
)

// Handle addresses one counter slot in an Arena. Handles are resolved
// at wiring time (fixed-section constants below, NewPort for ports)
// and are stable for the registry's lifetime.
type Handle = int32

// Arena is the flat counter storage. Methods are the complete hot-path
// surface: a handful of indexed read-modify-write operations.
type Arena struct {
	slots []uint64
}

// Inc adds one to an integer counter.
func (a *Arena) Inc(h Handle) { a.slots[h]++ }

// AddUint adds v to an integer counter.
func (a *Arena) AddUint(h Handle, v uint64) { a.slots[h] += v }

// MaxUint raises an integer high-water mark to v if it is larger.
func (a *Arena) MaxUint(h Handle, v uint64) {
	if v > a.slots[h] {
		a.slots[h] = v
	}
}

// AddFloat adds v to a float64 accumulator slot.
func (a *Arena) AddFloat(h Handle, v float64) {
	a.slots[h] = math.Float64bits(math.Float64frombits(a.slots[h]) + v)
}

// Int reads an integer counter as int64.
func (a *Arena) Int(h Handle) int64 { return int64(a.slots[h]) }

// Float reads a float64 accumulator.
func (a *Arena) Float(h Handle) float64 { return math.Float64frombits(a.slots[h]) }

// Atomic accessors, for the serve section only: the daemon's HTTP
// handlers increment concurrently, unlike the single-threaded
// simulation sections. A slot must be accessed either always plainly
// or always atomically — mixing the two on one slot is a data race.

// AtomicInc atomically adds one to an integer counter.
func (a *Arena) AtomicInc(h Handle) { atomic.AddUint64(&a.slots[h], 1) }

// AtomicInt atomically reads an integer counter as int64.
func (a *Arena) AtomicInt(h Handle) int64 { return int64(atomic.LoadUint64(&a.slots[h])) }

// lineSlots is one cache line's worth of uint64 slots. Sections are
// padded to multiples of it and the arena carries one line of padding
// at each edge.
const lineSlots = 8

// Fixed-section handles. The head pad line occupies slots 0..7; the
// fixed sections follow, each starting on a line boundary.
const (
	// Engine section: discrete-event engine activity. Fired and Canceled
	// count handler executions and Cancel calls and depend on the
	// simulated history alone. Scheduled counts Schedule calls and
	// HeapHighWater the event slots in use at once (the events pending,
	// plus the one whose handler is running), which also depend on how
	// the engine is driven: a link keeps only its head delivery in the
	// engine (internal/network), so the packets on a wire share one slot
	// and a delivery still behind the head when the run ends is never
	// scheduled. Both therefore read slightly lower than when every
	// packet in flight had its own event (fig7, 5 s, seed 1, first
	// point: scheduled 220 669 -> 220 657, high water 141 -> 126). The
	// high-water handle keeps the name it had when the event set was a
	// heap whose canceled events stayed resident until their fire time
	// (snapshots and the benchmark read it by that name); Cancel now
	// frees the slot at once, so wherever events are canceled it reads
	// lower than it did (fig8, 3 s, seed 2: 33 -> 17).
	HEngineScheduled     Handle = lineSlots + iota // Schedule and ScheduleStamped calls
	HEngineCanceled                                // Cancel calls
	HEngineFired                                   // handler executions
	HEngineHeapHighWater                           // max event slots in use
)

const (
	// Pool section: packet-pool ownership transfers.
	HPoolTaken Handle = 2*lineSlots + iota
	HPoolReleased
)

// Admission section: accept/reject per procedure. Each procedure's
// block is ProcSlots wide with ProcAccepted/ProcRejected offsets.
const (
	HAdmissionAC1 Handle = 3 * lineSlots
	HAdmissionAC2 Handle = HAdmissionAC1 + ProcSlots
	HAdmissionAC3 Handle = HAdmissionAC2 + ProcSlots

	// ProcAccepted and ProcRejected are offsets into one procedure's
	// block.
	ProcAccepted Handle = 0
	ProcRejected Handle = 1
	// ProcSlots is the stride between procedure blocks.
	ProcSlots Handle = 2
)

// Faults section: injected-fault and churn activity. All counters stay
// zero on fault-free runs, so enabling them costs nothing and changes
// nothing.
const (
	HFaultLinkDowns      Handle = 4*lineSlots + iota // fault transitions down
	HFaultLinkUps                                    // fault transitions up
	HFaultInFlightDrops                              // packets lost on a failed link
	HFaultPurgeDrops                                 // packets discarded by mid-run teardown
	HFaultSignalingDrops                             // signaling messages lost to link faults
	HFaultSessionsPurged                             // mid-run session removals (per node visit)
	HFaultReleases                                   // churn: releases the fault plan made
	HFaultResetups                                   // churn: re-establishments accepted
	HFaultResetupRejects                             // churn: re-establishments rejected or lost
	HFaultStalls                                     // source stall windows begun
	HFaultWatchdogTrips                              // runs aborted by the event-engine watchdog
)

// Serve section: scenario-daemon (litserve) activity. Unlike every
// other section these slots are written concurrently by HTTP handler
// and worker goroutines, so they must be accessed only through the
// Atomic* arena methods and read through ServeCounters — never via a
// plain Snapshot of a registry that is still serving.
const (
	HServeRequests        Handle = 6*lineSlots + iota // wire requests received
	HServeMalformed                                   // requests rejected as malformed
	HServeDuplicates                                  // duplicate ids / replays refused
	HServeShed                                        // overload sheds (429 + Retry-After)
	HServeSetups                                      // SETUP calls accepted
	HServeSetupRejects                                // SETUP calls declined by admission
	HServeReleases                                    // RELEASE calls completed
	HServeAdopts                                      // Adopt registrations
	HServeScenarioQueued                              // scenario jobs accepted into the queue
	HServeScenarioDone                                // scenario jobs completed
	HServeScenarioFailed                              // scenario jobs failed (panic or watchdog)
	HServePanics                                      // worker panics recovered
	HServeWatchdogTrips                               // worker watchdog aborts
	HServeDeadlineExpired                             // requests abandoned at their deadline
	HServeCheckpoints                                 // checkpoint files written
	HServeRestores                                    // jobs restored from a checkpoint
)

// fixedSlots is the arena length before the first port block: head pad
// + engine + pool + admission + faults (two lines) + serve (two lines).
const fixedSlots = 8 * lineSlots

// Per-port block offsets. Each port's block is PortSlots wide and
// holds the port counters followed by its discipline's scheduler
// counters, so one wiring-time base handle serves both.
const (
	PortArrivals         Handle = iota // packets accepted (post drop check)
	PortArrivedBits                    // float64: bits accepted
	PortTransmissions                  // packets whose last bit left the link
	PortTransmittedBits                // float64: bits transmitted
	PortDroppedPackets                 // buffer-limit drops
	PortDroppedBits                    // float64: bits dropped at buffer limits
	PortFaultDrops                     // packets lost to link faults / purges
	PortFaultDroppedBits               // float64: bits lost to faults / purges
	PortSignalingDrops                 // signaling messages lost on this link
	PortQueueHighWater                 // max packets ever held by the discipline

	// Scheduler counters (disciplines without a delay regulator leave
	// the first two at zero).
	SchedRegulated       // arrivals held by the delay regulator
	SchedEligibilityWait // float64: seconds of scheduled holding (E - arrival)
	SchedDeadlineMisses  // transmissions finishing after the service guarantee

	// PortSlots is the per-port block stride (two cache lines).
	PortSlots Handle = 2 * lineSlots
)

// Registry is the root of a run's telemetry: one arena plus the port
// metadata (names, capacities) needed to render snapshots. All
// allocation happens at wiring time.
type Registry struct {
	arena Arena
	ports []portInfo
}

type portInfo struct {
	name     string
	capacity float64
	base     Handle
}

// NewRegistry returns a registry with the fixed sections allocated and
// zeroed.
func NewRegistry() *Registry {
	r := &Registry{}
	// Head pad + fixed sections + tail pad. Port blocks are inserted
	// before the tail pad by NewPort.
	r.arena.slots = make([]uint64, fixedSlots+lineSlots)
	return r
}

// Arena returns the registry's counter arena, for wiring fixed-section
// handles into instrumented components.
func (r *Registry) Arena() *Arena { return &r.arena }

// NewPort registers a port and returns the arena and the port's block
// base handle. Called once per port at wiring time, in port creation
// order.
func (r *Registry) NewPort(name string, capacity float64) (*Arena, Handle) {
	base := Handle(len(r.arena.slots)) - lineSlots // overwrite the tail pad...
	block := make([]uint64, PortSlots)
	r.arena.slots = append(r.arena.slots[:base], block...)
	// ...and restore it after the new block.
	r.arena.slots = append(r.arena.slots, make([]uint64, lineSlots)...)
	r.ports = append(r.ports, portInfo{name: name, capacity: capacity, base: base})
	return &r.arena, base
}

// The view types below are read-side copies of the arena's sections.
// Each counter is spelled once here, with the key it takes in the
// telemetry document: Snapshot and the litserve stats endpoint encode
// these types as they stand, so struct order is key order.

// Engine is the read-side view of the engine section. Fired and
// Canceled depend on the simulated history alone; Scheduled (Schedule
// calls) and HeapHighWater (event slots in use) also depend on how the
// network drives the engine (see HEngineScheduled).
type Engine struct {
	Scheduled     int64 `json:"scheduled"`
	Canceled      int64 `json:"canceled"`
	Fired         int64 `json:"fired"`
	HeapHighWater int64 `json:"heap_high_water"`
}

// Pool is the read-side view of the packet-pool section.
type Pool struct {
	Taken    int64 `json:"taken"`
	Released int64 `json:"released"`
	// Live is Taken - Released: packets inside the network at the
	// instant of the view.
	Live int64 `json:"live"`
}

// Sched is the read-side view of one port discipline's scheduler
// counters.
type Sched struct {
	Regulated       int64   `json:"regulated"`
	EligibilityWait float64 `json:"eligibility_wait_s"`
	DeadlineMisses  int64   `json:"deadline_misses"`
}

// Port is the read-side view of one port's counters plus its
// construction metadata.
type Port struct {
	Name            string  `json:"name"`
	Capacity        float64 `json:"capacity_bps"`
	Arrivals        int64   `json:"arrivals"`
	ArrivedBits     float64 `json:"arrived_bits"`
	Transmissions   int64   `json:"transmissions"`
	TransmittedBits float64 `json:"transmitted_bits"`
	// Utilization is the link's busy fraction over the observation
	// interval: TransmittedBits / (Capacity * Duration). A port
	// transmits one packet at a time, so busy time is exactly the
	// transmitted volume divided by the link rate. Only Snapshot, which
	// knows the interval, fills it.
	Utilization      float64 `json:"utilization"`
	DroppedPackets   int64   `json:"dropped_packets"`
	DroppedBits      float64 `json:"dropped_bits"`
	FaultDrops       int64   `json:"fault_drops"`
	FaultDroppedBits float64 `json:"fault_dropped_bits"`
	SignalingDrops   int64   `json:"signaling_drops"`
	QueueHighWater   int64   `json:"queue_high_water_pkts"`
	Sched            Sched   `json:"sched"`
}

// ProcOutcome is the read-side view of one admission procedure's
// decisions.
type ProcOutcome struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
}

// Admission aggregates decisions per admission control procedure.
type Admission struct {
	AC1 ProcOutcome `json:"ac1"`
	AC2 ProcOutcome `json:"ac2"`
	AC3 ProcOutcome `json:"ac3"`
}

// Faults is the read-side view of the injected-fault section. All
// fields are zero on fault-free runs.
type Faults struct {
	LinkDowns      int64 `json:"link_downs"`
	LinkUps        int64 `json:"link_ups"`
	InFlightDrops  int64 `json:"in_flight_drops"`
	PurgeDrops     int64 `json:"purge_drops"`
	SignalingDrops int64 `json:"signaling_drops"`
	SessionsPurged int64 `json:"sessions_purged"`
	Releases       int64 `json:"releases"`
	Resetups       int64 `json:"resetups"`
	ResetupRejects int64 `json:"resetup_rejects"`
	Stalls         int64 `json:"stalls"`
	WatchdogTrips  int64 `json:"watchdog_trips"`
}

// EngineCounters materializes the engine section.
func (r *Registry) EngineCounters() Engine { return engineView(&r.arena) }

func engineView(a *Arena) Engine {
	return Engine{
		Scheduled:     a.Int(HEngineScheduled),
		Canceled:      a.Int(HEngineCanceled),
		Fired:         a.Int(HEngineFired),
		HeapHighWater: a.Int(HEngineHeapHighWater),
	}
}

// PoolCounters materializes the packet-pool section.
func (r *Registry) PoolCounters() Pool { return poolView(&r.arena) }

func poolView(a *Arena) Pool {
	taken, released := a.Int(HPoolTaken), a.Int(HPoolReleased)
	return Pool{Taken: taken, Released: released, Live: taken - released}
}

// AdmissionCounters materializes the admission section.
func (r *Registry) AdmissionCounters() Admission { return admissionView(&r.arena) }

func admissionView(a *Arena) Admission {
	proc := func(base Handle) ProcOutcome {
		return ProcOutcome{
			Accepted: a.Int(base + ProcAccepted),
			Rejected: a.Int(base + ProcRejected),
		}
	}
	return Admission{AC1: proc(HAdmissionAC1), AC2: proc(HAdmissionAC2), AC3: proc(HAdmissionAC3)}
}

// Serve is the read-side view of the daemon section, rendered by the
// litserve stats endpoint (it is not part of Snapshot: the simulation
// telemetry schema predates the daemon and stays pinned).
type Serve struct {
	Requests        int64 `json:"requests"`
	Malformed       int64 `json:"malformed"`
	Duplicates      int64 `json:"duplicates"`
	Shed            int64 `json:"shed"`
	Setups          int64 `json:"setups"`
	SetupRejects    int64 `json:"setup_rejects"`
	Releases        int64 `json:"releases"`
	Adopts          int64 `json:"adopts"`
	ScenarioQueued  int64 `json:"scenario_queued"`
	ScenarioDone    int64 `json:"scenario_done"`
	ScenarioFailed  int64 `json:"scenario_failed"`
	Panics          int64 `json:"panics"`
	WatchdogTrips   int64 `json:"watchdog_trips"`
	DeadlineExpired int64 `json:"deadline_expired"`
	Checkpoints     int64 `json:"checkpoints"`
	Restores        int64 `json:"restores"`
}

// ServeCounters materializes the daemon section with atomic loads, so
// it is safe to call while handlers are still incrementing.
func (r *Registry) ServeCounters() Serve {
	a := &r.arena
	return Serve{
		Requests:        a.AtomicInt(HServeRequests),
		Malformed:       a.AtomicInt(HServeMalformed),
		Duplicates:      a.AtomicInt(HServeDuplicates),
		Shed:            a.AtomicInt(HServeShed),
		Setups:          a.AtomicInt(HServeSetups),
		SetupRejects:    a.AtomicInt(HServeSetupRejects),
		Releases:        a.AtomicInt(HServeReleases),
		Adopts:          a.AtomicInt(HServeAdopts),
		ScenarioQueued:  a.AtomicInt(HServeScenarioQueued),
		ScenarioDone:    a.AtomicInt(HServeScenarioDone),
		ScenarioFailed:  a.AtomicInt(HServeScenarioFailed),
		Panics:          a.AtomicInt(HServePanics),
		WatchdogTrips:   a.AtomicInt(HServeWatchdogTrips),
		DeadlineExpired: a.AtomicInt(HServeDeadlineExpired),
		Checkpoints:     a.AtomicInt(HServeCheckpoints),
		Restores:        a.AtomicInt(HServeRestores),
	}
}

// FaultCounters materializes the faults section.
func (r *Registry) FaultCounters() Faults { return faultsView(&r.arena) }

func faultsView(a *Arena) Faults {
	return Faults{
		LinkDowns:      a.Int(HFaultLinkDowns),
		LinkUps:        a.Int(HFaultLinkUps),
		InFlightDrops:  a.Int(HFaultInFlightDrops),
		PurgeDrops:     a.Int(HFaultPurgeDrops),
		SignalingDrops: a.Int(HFaultSignalingDrops),
		SessionsPurged: a.Int(HFaultSessionsPurged),
		Releases:       a.Int(HFaultReleases),
		Resetups:       a.Int(HFaultResetups),
		ResetupRejects: a.Int(HFaultResetupRejects),
		Stalls:         a.Int(HFaultStalls),
		WatchdogTrips:  a.Int(HFaultWatchdogTrips),
	}
}

// PortCounters materializes every port's counters, in port creation
// order.
func (r *Registry) PortCounters() []Port {
	out := make([]Port, len(r.ports))
	for i := range r.ports {
		out[i] = portView(&r.arena, &r.ports[i])
	}
	return out
}

func portView(a *Arena, pi *portInfo) Port {
	b := pi.base
	return Port{
		Name:             pi.name,
		Capacity:         pi.capacity,
		Arrivals:         a.Int(b + PortArrivals),
		ArrivedBits:      a.Float(b + PortArrivedBits),
		Transmissions:    a.Int(b + PortTransmissions),
		TransmittedBits:  a.Float(b + PortTransmittedBits),
		DroppedPackets:   a.Int(b + PortDroppedPackets),
		DroppedBits:      a.Float(b + PortDroppedBits),
		FaultDrops:       a.Int(b + PortFaultDrops),
		FaultDroppedBits: a.Float(b + PortFaultDroppedBits),
		SignalingDrops:   a.Int(b + PortSignalingDrops),
		QueueHighWater:   a.Int(b + PortQueueHighWater),
		Sched: Sched{
			Regulated:       a.Int(b + SchedRegulated),
			EligibilityWait: a.Float(b + SchedEligibilityWait),
			DeadlineMisses:  a.Int(b + SchedDeadlineMisses),
		},
	}
}

// Snapshot is the JSON-facing view of a registry at one instant:
// the raw counters plus the derived gauges (utilization, pool live).
type Snapshot struct {
	// Duration is the observation interval in simulated seconds (the
	// instant the snapshot was taken, for runs starting at 0).
	Duration float64 `json:"duration_s"`

	Engine Engine `json:"engine"`
	Pool   Pool   `json:"pool"`

	Admission Admission `json:"admission"`
	Faults    Faults    `json:"faults"`
	Ports     []Port    `json:"ports"`
}

// Snapshot derives the JSON-facing view of the registry at simulated
// time now (runs start at 0, so now is also the observation duration).
// The arena is copied in one memmove first, so rendering reads a
// consistent instant and the hot loop's counters are never stalled or
// re-read mid-derivation.
func (r *Registry) Snapshot(now float64) *Snapshot {
	a := &Arena{slots: append([]uint64(nil), r.arena.slots...)}
	s := &Snapshot{
		Duration:  now,
		Engine:    engineView(a),
		Pool:      poolView(a),
		Admission: admissionView(a),
		Faults:    faultsView(a),
		Ports:     make([]Port, len(r.ports)),
	}
	for i := range r.ports {
		p := portView(a, &r.ports[i])
		if now > 0 && p.Capacity > 0 {
			p.Utilization = p.TransmittedBits / (p.Capacity * now)
		}
		s.Ports[i] = p
	}
	return s
}
