package system

import (
	"runtime"
	"testing"

	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/traffic"
)

// TestRunStartsLateCallsNow: Run's argument is an absolute horizon, so a
// call connected after a first Run starts emitting at the clock's
// current time, not at 0 (whose first emission would be in the past).
func TestRunStartsLateCallsNow(t *testing.T) {
	sys, err := New(Config{LMax: 424})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.AddServer("T1", 1.536e6, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	connect := func() *network.Session {
		src := &traffic.OnOff{T: 0.012, Length: 424, MeanOn: 0.352, MeanOff: 0.650, Rng: r.Split()}
		sess, _, err := sys.Connect(ConnectRequest{Rate: 32e3, Route: []*Server{srv}, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	connect()
	sys.Run(10)
	second := connect()
	sys.Run(20)
	if now := sys.Sim.Now(); now != 20 {
		t.Errorf("clock at %v after Run(20), want 20", now)
	}
	if second.Emitted == 0 || second.Delivered == 0 {
		t.Errorf("late call emitted %d and delivered %d packets in [10, 20]", second.Emitted, second.Delivered)
	}
}

// TestChurnFootprintFlat: a switch's memory follows the calls standing,
// not the calls ever placed. 512 five-hop calls stand; every round
// replaces them oldest-first, except one in sixteen that is never
// released, so session ids run to ~31 000 while the live ids stay a
// 512-wide window plus 32 stragglers at the bottom. The stragglers keep
// every session table's directory spanning all ids issued, and that
// span is the one thing the heap may grow by from round 12 to round 64:
// 8 B per 256 ids issued in between per table (the network's id table,
// and per hop LiT's and the admission controller's, and with a buffer
// probe per hop the port's probe table), plus a fixed 4 kB, as a
// directory's array is grown by append and runs ahead of its span (by
// about 110 B a table here). A release that kept 8 B would add 200 kB. A late round must
// allocate what an early one did (a mean over four rounds: a
// directory's array is renewed every other round or so). Neither
// four-round window crosses a power-of-two id (rounds 9-12 issue ids
// ~4 350 to ~6 270, rounds 61-64 ~29 800 to ~31 230): at such an id a
// directory doubles its array once, and that one-off growth is not what
// a round costs.
//
// An OS thread the runtime starts keeps its descriptors (its m and two
// g's, about 5 kB) in the heap for good, and the scheduler starts one
// when it likes, more often on a loaded host. A thread started during
// either run would read as that run's growth, so a pair of runs across
// which one was started is run again, up to four times.
func TestChurnFootprintFlat(t *testing.T) {
	for _, probes := range []bool{false, true} {
		name := "bare"
		if probes {
			name = "probes"
		}
		t.Run(name, func(t *testing.T) {
			var early, late footprint
			for try := 1; ; try++ {
				threads, _ := runtime.ThreadCreateProfile(nil)
				early, late = churnFootprint(t, probes, 12), churnFootprint(t, probes, 64)
				if now, _ := runtime.ThreadCreateProfile(nil); now == threads || try == 4 {
					break
				}
				t.Logf("try %d: the runtime started a thread during the runs; running them again", try)
			}
			t.Logf("round 12: heap %d B, round allocates %d B; round 64: heap %d B, round allocates %d B",
				early.heap, early.roundAlloc, late.heap, late.roundAlloc)
			tables := 1 + 2*churnHops
			if probes {
				tables += churnHops
			}
			span := uint64(tables) * 8 * uint64(late.lastID-early.lastID+255) / 256
			if late.heap > early.heap+span+4096 {
				t.Errorf("live heap after round 64 is %d B, after round 12 %d B: it grew by more than the %d B the %d id tables' directories span, plus 4 kB",
					late.heap, early.heap, span, tables)
			}
			if !within(late.roundAlloc, early.roundAlloc, 0.01) {
				t.Errorf("round 64 allocates %d B, round 12 %d B: not within 1%%", late.roundAlloc, early.roundAlloc)
			}
		})
	}
}

func within(got, want uint64, tol float64) bool {
	d := float64(got) - float64(want)
	return d <= tol*float64(want) && -d <= tol*float64(want)
}

// footprint is a churn run's live heap, what a round allocated and the
// last session id issued.
type footprint struct {
	heap, roundAlloc uint64
	lastID           int
}

// churnHops is the length of the churn's calls.
const churnHops = 5

// churnFootprint runs the churn for the given number of rounds on a
// fresh system and reports the live heap after the last round (two
// collections, so finalizer-held memory is gone too) and what a round
// allocated, as the mean of the last four.
func churnFootprint(t *testing.T, probes bool, rounds int) footprint {
	t.Helper()
	const standing = 512
	sys, err := New(Config{LMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var route []*Server
	for i := 0; i < churnHops; i++ {
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
	return footprint{heap: after.HeapAlloc, roundAlloc: roundAlloc, lastID: calls[len(calls)-1].ID}
}
