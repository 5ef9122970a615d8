package event

import (
	"fmt"
	"math"
	"testing"

	"leaveintime/internal/metrics"
	"leaveintime/internal/rng"
)

// TestTreeGrowsUnderLoad takes the slot arrays from 8 to at least 1 024
// from inside handlers: every fired event schedules up to three more,
// local and stamped, many at one instant, so the population grows while
// the run is under way and each doubling rebuilds a tree that has ties
// in it and is re-armed in the same handler. The fired order must be
// the reference's.
func TestTreeGrowsUnderLoad(t *testing.T) {
	play := func(s engine) string {
		var log []byte
		r := rng.New(21)
		id, stamps := 0, uint64(0)
		var arm func()
		arm = func() {
			if id >= 4000 {
				return
			}
			me := id
			id++
			at := s.Now() + float64(r.Intn(4))
			fn := func() {
				log = fmt.Appendf(log, "%d@%v ", me, s.Now())
				for n := r.Intn(4); n > 0; n-- {
					arm()
				}
				s.verify()
			}
			if r.Intn(3) > 0 {
				s.schedule(me, at, fn)
				return
			}
			stamps++
			s.stamped(me, at, at-float64(r.Intn(2)), 1<<63|stamps, fn)
		}
		for i := 0; i < 6; i++ {
			arm()
		}
		s.RunAll()
		return string(log)
	}
	sim := New()
	got := play(&realSim{Simulator: sim, evs: map[int]Event{}, t: t})
	if want := play(&refSim{evs: map[int]*refEv{}}); got != want {
		t.Fatalf("fired order differs from the reference's:\n got %.300s\nwant %.300s", got, want)
	}
	if n := len(sim.keys); n < 1024 {
		t.Fatalf("the run grew the event set to %d slots, want at least 1024", n)
	}
}

// TestScheduleAtInfinity: +Inf is a legal fire time whose key is the
// largest a pending event can have; it must still be below an empty
// slot's.
func TestScheduleAtInfinity(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(math.Inf(1), func() { got = append(got, "inf") })
	s.Schedule(math.MaxFloat64, func() { got = append(got, "max") })
	s.Schedule(1, func() {
		got = append(got, "one")
		s.ScheduleStamped(math.Inf(1), 0.5, 1<<63, func() { got = append(got, "inf-stamped") })
		s.After(math.Inf(1), func() { got = append(got, "inf-late") })
	})
	s.Run(2)
	if s.pending != 4 {
		t.Fatalf("pending = %d, want 4", s.pending)
	}
	if next, ok := s.NextTime(); !ok || next != math.MaxFloat64 {
		t.Fatalf("NextTime = %v %v, want MaxFloat64 true", next, ok)
	}
	s.RunAll()
	if want := "[one max inf inf-stamped inf-late]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if !math.IsInf(s.Now(), 1) || s.pending != 0 || s.Step() {
		t.Fatalf("after the run: Now %v, pending %d", s.Now(), s.pending)
	}
}

// TestCanceledEventsHoldNoSlot: a canceled event leaves the set when
// Cancel returns, not when its fire time comes — a port that re-arms
// its wake-up on every arrival must not grow the set by one slot per
// arrival.
func TestCanceledEventsHoldNoSlot(t *testing.T) {
	s := New()
	reg := metrics.NewRegistry()
	s.SetMetrics(reg.Arena())
	fired := 0
	s.Schedule(1, func() { fired++ })
	for i := 0; i < 100000; i++ {
		s.Cancel(s.Schedule(1e6+float64(i), func() { t.Error("canceled event fired") }))
	}
	if hw := reg.Arena().Int(metrics.HEngineHeapHighWater); hw > 8 {
		t.Fatalf("engine.heap_high_water = %d after 100000 schedule/cancel cycles with one event standing, want at most 8", hw)
	}
	s.RunAll()
	if fired != 1 || s.Now() != 1 {
		t.Fatalf("fired %d, Now %v; want 1, 1", fired, s.Now())
	}
}

// checkTree asserts the event set's structure: every inner node names
// the winner of its two children, the idle list is exactly the empty
// slots, an empty slot keeps no handler, every generation is odd (so no
// slot matches the zero Event), the used slots are the pending
// events plus the held one, and second bounds every key but the
// root's.
func checkTree(t testing.TB, s *Simulator) {
	t.Helper()
	n := len(s.keys)
	if n == 0 && s.pending == 0 && !s.held {
		return
	}
	if n&(n-1) != 0 || len(s.evs) != n || len(s.win) != 2*n {
		t.Fatalf("tree sizes: %d keys, %d events, %d nodes", n, len(s.evs), len(s.win))
	}
	root := s.win[1]
	idle := make(map[int32]bool, len(s.idle))
	for _, i := range s.idle {
		if idle[i] {
			t.Fatalf("slot %d is on the idle list twice", i)
		}
		idle[i] = true
	}
	used := 0
	for i := int32(0); int(i) < n; i++ {
		k, e := s.keys[i], &s.evs[i]
		if s.win[n+int(i)] != i {
			t.Fatalf("leaf %d names slot %d", i, s.win[n+int(i)])
		}
		if i != root && k < s.second {
			t.Fatalf("second = %#x is above slot %d's key %#x (root is slot %d)", s.second, i, k, root)
		}
		if (k == freeKey) != idle[i] || idle[i] && e.fn != nil || e.gen&1 == 0 {
			t.Fatalf("slot %d: key %#x, handler set %v, idle %v, generation %d", i, k, e.fn != nil, idle[i], e.gen)
		}
		if !idle[i] {
			used++
		}
	}
	want := s.pending
	if s.held {
		want++
	}
	if used != want {
		t.Fatalf("%d slots in use, want %d pending + held %v", used, s.pending, s.held)
	}
	for i := n - 1; i >= 1; i-- {
		w, a, b := s.win[i], s.win[2*i], s.win[2*i+1]
		if w == b {
			a, b = b, a
		}
		if w != a || s.beats(b, w) {
			t.Fatalf("node %d names slot %d; its children name %d and %d", i, w, s.win[2*i], s.win[2*i+1])
		}
	}
}
