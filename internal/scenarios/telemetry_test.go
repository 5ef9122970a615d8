package scenarios

import (
	"testing"

	"leaveintime/internal/metrics"
)

// TestFig8ObservedInvariance: attaching a registry must not change the
// simulation — the figure output is byte-identical with and without
// instrumentation — and the counters it fills must be self-consistent.
func TestFig8ObservedInvariance(t *testing.T) {
	const (
		duration = 2.0
		seed     = 1
	)
	bare := RunFig8Observed(duration, seed, nil)
	reg := metrics.NewRegistry()
	observed := RunFig8Observed(duration, seed, reg)

	if bare.Format() != observed.Format() {
		t.Fatalf("instrumented Fig8 run differs from bare run:\n--- bare ---\n%s--- observed ---\n%s",
			bare.Format(), observed.Format())
	}
	if bare.FormatBuffers() != observed.FormatBuffers() {
		t.Fatal("instrumented Fig8 buffer view differs from bare run")
	}

	snap := reg.Snapshot(duration)
	if snap.Engine.Fired == 0 || snap.Engine.Scheduled < snap.Engine.Fired {
		t.Errorf("implausible engine counters: %+v", snap.Engine)
	}
	// The clock stops at duration with packets still in flight, so the
	// pool need not be drained — but ownership must balance.
	if snap.Pool.Taken == 0 || snap.Pool.Live < 0 || snap.Pool.Released > snap.Pool.Taken {
		t.Errorf("pool ownership out of balance: %+v", snap.Pool)
	}
	// CROSS admits 2 five-hop + 5 one-hop sessions through AC1:
	// 2*5 + 5 = 15 accepted hops, nothing rejected.
	if snap.Admission.AC1.Accepted != 15 || snap.Admission.AC1.Rejected != 0 {
		t.Errorf("admission counters: %+v", snap.Admission.AC1)
	}
	if len(snap.Ports) != NumNodes {
		t.Fatalf("got %d port sections, want %d", len(snap.Ports), NumNodes)
	}
	for _, p := range snap.Ports {
		if p.Arrivals == 0 || p.Transmissions == 0 || p.Transmissions > p.Arrivals {
			t.Errorf("port %s: arrivals %d, transmissions %d",
				p.Name, p.Arrivals, p.Transmissions)
		}
		if p.DroppedPackets != 0 {
			t.Errorf("port %s: %d drops with unlimited buffers", p.Name, p.DroppedPackets)
		}
		if p.Utilization <= 0 || p.Utilization > 1 {
			t.Errorf("port %s: utilization %v out of (0, 1]", p.Name, p.Utilization)
		}
		if p.QueueHighWater == 0 {
			t.Errorf("port %s: queue high-water never sampled", p.Name)
		}
	}
	// The measured ON-OFF sessions use the LiT regulator; some arrivals
	// must have been held for eligibility somewhere on the route.
	var regulated int64
	for _, p := range snap.Ports {
		regulated += p.Sched.Regulated
	}
	if regulated == 0 {
		t.Error("no regulated arrivals counted across the tandem")
	}
}

// TestFig7ObservedPerPointRegistries: each sweep point fills its own
// registry (the points run concurrently), and observation does not
// change the sweep output.
func TestFig7ObservedPerPointRegistries(t *testing.T) {
	const (
		duration = 1.0
		seed     = 1
	)
	bare := RunFig7(duration, seed)
	regs := make([]*metrics.Registry, len(AOffValues))
	for i := range regs {
		regs[i] = metrics.NewRegistry()
	}
	observed := RunFig7Observed(duration, seed, regs)

	if bare.Format() != observed.Format() {
		t.Fatal("instrumented Fig7 sweep differs from bare sweep")
	}
	for i, reg := range regs {
		if reg.EngineCounters().Fired == 0 {
			t.Errorf("point %d: registry never written", i)
		}
		if pool := reg.PoolCounters(); pool.Taken == 0 || pool.Released > pool.Taken {
			t.Errorf("point %d: pool ownership out of balance: %+v", i, pool)
		}
		// MIX establishes 116 sessions; session hops sum to 116 routes'
		// worth of AC1 admissions — at least one per session.
		if adm := reg.AdmissionCounters(); adm.AC1.Accepted < 116 {
			t.Errorf("point %d: only %d AC1 admissions", i, adm.AC1.Accepted)
		}
	}

	// A short slice leaves the tail uninstrumented without panicking.
	short := RunFig7Observed(duration, seed, regs[:2])
	if bare.Format() != short.Format() {
		t.Fatal("short registry slice changed the sweep output")
	}
}
