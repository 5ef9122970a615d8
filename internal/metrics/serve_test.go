package metrics

import (
	"sync"
	"testing"
)

// TestServeSectionConcurrent: the daemon section is the one part of
// the arena written from many goroutines; atomic increments must not
// lose counts.
func TestServeSectionConcurrent(t *testing.T) {
	r := NewRegistry()
	a := r.Arena()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.AtomicInc(HServeRequests)
				a.AtomicInc(HServeSetups)
				a.AtomicInc(HServeSetups)
			}
		}()
	}
	wg.Wait()
	s := r.ServeCounters()
	if s.Requests != workers*per {
		t.Errorf("Requests = %d, want %d", s.Requests, workers*per)
	}
	if s.Setups != 2*workers*per {
		t.Errorf("Setups = %d, want %d", s.Setups, 2*workers*per)
	}
}

// TestServeSectionDoesNotDisturbPorts: growing the fixed sections must
// leave port blocks and the simulation snapshot schema untouched.
func TestServeSectionDoesNotDisturbPorts(t *testing.T) {
	r := NewRegistry()
	a, base := r.NewPort("p0", 1e6)
	a.Inc(base + PortArrivals)
	a.AtomicInc(HServeShed)
	snap := r.Snapshot(1)
	if len(snap.Ports) != 1 || snap.Ports[0].Arrivals != 1 {
		t.Fatalf("port block broken: %+v", snap.Ports)
	}
	if got := r.ServeCounters().Shed; got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}
}
