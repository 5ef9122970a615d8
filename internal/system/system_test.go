package system

import (
	"runtime"
	"testing"

	"leaveintime/internal/network"
)

// TestChurnFootprintFlat: a switch's memory follows the calls standing,
// not the calls ever placed. 512 five-hop calls stand; every round
// replaces them oldest-first, except one in sixteen that is never
// released, so session ids run to ~31 000 while the live ids stay a
// 512-wide window plus 32 stragglers at the bottom. The heap after
// round 64 must be the heap after round 8, and a late round must
// allocate what an early one did (a mean over four rounds: a
// directory's array is renewed every other round or so). With a buffer
// probe per hop the ports' probe tables are under the same test.
func TestChurnFootprintFlat(t *testing.T) {
	for _, probes := range []bool{false, true} {
		name := "bare"
		if probes {
			name = "probes"
		}
		t.Run(name, func(t *testing.T) {
			early, late := churnFootprint(t, probes, 8), churnFootprint(t, probes, 64)
			t.Logf("round 8: heap %d B, round allocates %d B; round 64: heap %d B, round allocates %d B",
				early.heap, early.roundAlloc, late.heap, late.roundAlloc)
			if !within(late.heap, early.heap, 0.03) {
				t.Errorf("live heap after round 64 is %d B, after round 8 %d B: not within 3%%", late.heap, early.heap)
			}
			if !within(late.roundAlloc, early.roundAlloc, 0.01) {
				t.Errorf("round 64 allocates %d B, round 8 %d B: not within 1%%", late.roundAlloc, early.roundAlloc)
			}
		})
	}
}

func within(got, want uint64, tol float64) bool {
	d := float64(got) - float64(want)
	return d <= tol*float64(want) && -d <= tol*float64(want)
}

type footprint struct{ heap, roundAlloc uint64 }

// churnFootprint runs the churn for the given number of rounds on a
// fresh system and reports the live heap after the last round (two
// collections, so finalizer-held memory is gone too) and what a round
// allocated, as the mean of the last four.
func churnFootprint(t *testing.T, probes bool, rounds int) footprint {
	t.Helper()
	const standing, hops = 512, 5
	sys, err := New(Config{LMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var route []*Server
	for i := 0; i < hops; i++ {
		srv, err := sys.AddServer("s", 1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		route = append(route, srv)
	}
	connect := func() *network.Session {
		sess, _, err := sys.Connect(ConnectRequest{Rate: 1e3, Route: route})
		if err != nil {
			t.Fatal(err)
		}
		if probes {
			for _, p := range sess.Route {
				p.LimitBuffer(sess.ID, 1e6)
			}
		}
		return sess
	}
	calls := make([]*network.Session, standing)
	for i := range calls {
		calls[i] = connect()
	}
	var before, after runtime.MemStats
	for r := 1; r <= rounds; r++ {
		if r == rounds-3 {
			runtime.ReadMemStats(&before)
		}
		for i := range calls {
			if i%16 == 0 {
				continue // never released
			}
			sys.Disconnect(calls[i])
			calls[i] = connect()
		}
	}
	runtime.ReadMemStats(&after)
	roundAlloc := (after.TotalAlloc - before.TotalAlloc) / 4
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(calls)
	return footprint{heap: after.HeapAlloc, roundAlloc: roundAlloc}
}
