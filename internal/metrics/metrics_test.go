package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSnapshotDerivedFields(t *testing.T) {
	r := NewRegistry()
	a, p1 := r.NewPort("node1", 1000)
	_, _ = r.NewPort("node2", 1000)

	a.AddUint(HEngineScheduled, 10)
	a.AddUint(HEngineCanceled, 2)
	a.AddUint(HEngineFired, 8)
	a.MaxUint(HEngineHeapHighWater, 5)
	a.AddUint(HPoolTaken, 7)
	a.AddUint(HPoolReleased, 4)
	a.AddUint(HAdmissionAC1+ProcAccepted, 3)
	a.AddUint(HAdmissionAC1+ProcRejected, 1)
	a.AddUint(p1+PortArrivals, 6)
	a.AddFloat(p1+PortArrivedBits, 600)
	a.AddUint(p1+PortTransmissions, 5)
	a.AddFloat(p1+PortTransmittedBits, 500)
	a.AddUint(p1+PortDroppedPackets, 1)
	a.AddFloat(p1+PortDroppedBits, 100)
	a.MaxUint(p1+PortQueueHighWater, 4)
	a.AddUint(p1+SchedRegulated, 2)
	a.AddFloat(p1+SchedEligibilityWait, 0.5)
	a.AddUint(p1+SchedDeadlineMisses, 1)

	s := r.Snapshot(2)
	if s.Duration != 2 {
		t.Errorf("Duration = %v", s.Duration)
	}
	if s.Pool.Live != 3 {
		t.Errorf("Pool.Live = %d, want 3", s.Pool.Live)
	}
	if s.Engine != (Engine{Scheduled: 10, Canceled: 2, Fired: 8, HeapHighWater: 5}) {
		t.Errorf("Engine = %+v", s.Engine)
	}
	if s.Admission.AC1 != (ProcOutcome{Accepted: 3, Rejected: 1}) {
		t.Errorf("AC1 = %+v", s.Admission.AC1)
	}
	if len(s.Ports) != 2 {
		t.Fatalf("Ports = %d, want 2", len(s.Ports))
	}
	// 500 bits over 2 s on a 1000 bit/s link: 25% busy.
	if got := s.Ports[0].Utilization; got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	if s.Ports[0].Sched.DeadlineMisses != 1 || s.Ports[0].DroppedPackets != 1 {
		t.Errorf("port snapshot = %+v", s.Ports[0])
	}
	if s.Ports[0].Sched.EligibilityWait != 0.5 {
		t.Errorf("EligibilityWait = %v, want 0.5", s.Ports[0].Sched.EligibilityWait)
	}
	if s.Ports[1].Utilization != 0 {
		t.Errorf("idle port utilization = %v", s.Ports[1].Utilization)
	}

	// A zero-duration snapshot must not divide by zero.
	if got := r.Snapshot(0).Ports[0].Utilization; got != 0 {
		t.Errorf("zero-duration utilization = %v", got)
	}
}

// TestSnapshotCopiesArena: a snapshot is a point-in-time copy — counter
// updates after Snapshot must not show in an earlier snapshot.
func TestSnapshotCopiesArena(t *testing.T) {
	r := NewRegistry()
	a, p1 := r.NewPort("node1", 1000)
	a.Inc(p1 + PortArrivals)
	s := r.Snapshot(1)
	a.Inc(p1 + PortArrivals)
	a.Inc(HEngineFired)
	if s.Ports[0].Arrivals != 1 {
		t.Errorf("snapshot arrivals = %d, want 1", s.Ports[0].Arrivals)
	}
	if s.Engine.Fired != 0 {
		t.Errorf("snapshot fired = %d, want 0", s.Engine.Fired)
	}
	if s2 := r.Snapshot(1); s2.Ports[0].Arrivals != 2 || s2.Engine.Fired != 1 {
		t.Errorf("second snapshot = %+v", s2)
	}
}

// TestPortBlocksAfterGrowth: NewPort appends blocks to the arena, so
// handles issued earlier must keep addressing their own counters after
// later ports grow the slot array.
func TestPortBlocksAfterGrowth(t *testing.T) {
	r := NewRegistry()
	a1, b1 := r.NewPort("n1", 1000)
	a1.Inc(b1 + PortArrivals)
	_, b2 := r.NewPort("n2", 1000)
	a1.Inc(b1 + PortTransmissions)
	a1.Inc(b2 + PortArrivals)
	a1.Inc(b2 + PortArrivals)
	ports := r.PortCounters()
	if ports[0].Arrivals != 1 || ports[0].Transmissions != 1 {
		t.Errorf("port 0 = %+v", ports[0])
	}
	if ports[1].Arrivals != 2 || ports[1].Transmissions != 0 {
		t.Errorf("port 1 = %+v", ports[1])
	}
}

func TestSnapshotJSONFieldNames(t *testing.T) {
	r := NewRegistry()
	r.NewPort("node1", 1536e3)
	data, err := json.Marshal(r.Snapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"duration_s"`, `"engine"`, `"heap_high_water"`, `"pool"`, `"live"`,
		`"admission"`, `"ac1"`, `"ports"`, `"capacity_bps"`, `"utilization"`,
		`"dropped_packets"`, `"queue_high_water_pkts"`, `"eligibility_wait_s"`,
		`"deadline_misses"`,
	} {
		if !bytes.Contains(data, []byte(field)) {
			t.Errorf("snapshot JSON missing %s: %s", field, data)
		}
	}
}

// sink defeats dead-code elimination in the allocation tests.
var sink int64

// TestCounterUpdatesAllocationFree pins the package's core contract:
// an instrumented site — nil-checked arena pointer, indexed slot adds —
// never allocates, whether the registry is attached or not. (The
// end-to-end version of this check is TestAllocationBudgets at the repo
// root, which runs the figure bodies with metrics enabled.)
func TestCounterUpdatesAllocationFree(t *testing.T) {
	r := NewRegistry()
	a, base := r.NewPort("node1", 1536e3)
	site := func(a *Arena, base Handle) {
		if a != nil {
			a.Inc(HEngineScheduled)
			a.MaxUint(HEngineHeapHighWater, a.slots[HEngineScheduled])
			a.Inc(base + PortArrivals)
			a.AddFloat(base+PortArrivedBits, 424)
			a.Inc(base + SchedRegulated)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { site(nil, 0) }); n != 0 {
		t.Errorf("disabled site allocates %v per event", n)
	}
	if n := testing.AllocsPerRun(1000, func() { site(a, base) }); n != 0 {
		t.Errorf("enabled site allocates %v per event", n)
	}
	sink = a.Int(HEngineScheduled) + a.Int(base+PortArrivals)
}

// TestFloatCounters: float counters ride in uint64 slots via bit casts;
// accumulation must be exact float64 addition.
func TestFloatCounters(t *testing.T) {
	var a Arena
	a.slots = make([]uint64, 4)
	a.AddFloat(1, 0.1)
	a.AddFloat(1, 0.25)
	if got := a.Float(1); got != 0.35 {
		t.Errorf("Float = %v, want 0.35", got)
	}
	if got := a.slots[2]; got != 0 {
		t.Errorf("untouched slot = %d", got)
	}
}
