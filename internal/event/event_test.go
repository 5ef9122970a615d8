package event

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties fired out of scheduling order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.RunAll()
	if fired {
		t.Error("canceled event fired")
	}
	// Double cancel and cancel-after-fire are no-ops.
	s.Cancel(e)
	e2 := s.Schedule(2, func() {})
	s.RunAll()
	s.Cancel(e2)
	s.Cancel(Event{}) // names no event
}

// TestCancelStaleHandle: a handle outlives its event. Canceling an
// event that has fired, or has been canceled, must not cancel the later
// event that took its slot — inside the firing handler, which re-arms
// the slot in place, as well as after it.
func TestCancelStaleHandle(t *testing.T) {
	s := New()
	var got []string
	e1 := s.Schedule(1, func() { got = append(got, "e1") })
	s.RunAll()
	e2 := s.Schedule(2, func() { got = append(got, "e2") })
	if e2.slot != e1.slot {
		t.Fatalf("e2 took slot %d, not e1's %d", e2.slot, e1.slot)
	}
	s.Cancel(e1)

	e3 := s.Schedule(3, func() { got = append(got, "e3") })
	s.Cancel(e3)
	e4 := s.Schedule(3, func() { got = append(got, "e4") })
	s.Cancel(e3)

	var e5 Event
	e5 = s.Schedule(4, func() {
		got = append(got, "e5")
		s.After(1, func() { got = append(got, "e6") }) // re-arms e5's slot
		s.Cancel(e5)
	})
	s.RunAll()
	if e4 == e3 {
		t.Fatalf("e4 reused e3's slot under e3's handle %+v", e3)
	}
	if want := "[e1 e2 e4 e5 e6]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	events := make([]Event, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		events = append(events, s.Schedule(float64(i), func() { got = append(got, i) }))
	}
	s.Cancel(events[4])
	s.Cancel(events[7])
	s.RunAll()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []float64
	for _, ti := range []float64{1, 2, 3, 4} {
		ti := ti
		s.Schedule(ti, func() { got = append(got, ti) })
	}
	s.Run(2.5)
	if len(got) != 2 {
		t.Fatalf("Run(2.5) fired %v, want events at 1 and 2", got)
	}
	if s.Now() != 2.5 {
		t.Errorf("Now = %v, want clock advanced to 2.5", s.Now())
	}
	s.Run(10)
	if len(got) != 4 {
		t.Fatalf("second Run fired %v", got)
	}
}

func TestScheduleInsideHandler(t *testing.T) {
	s := New()
	var got []float64
	s.Schedule(1, func() {
		s.After(1, func() { got = append(got, s.Now()) })
	})
	s.RunAll()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("After inside handler: got %v, want [2]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.Schedule(1, func() {})
}

// TestScheduleNaNPanics: a NaN fire time compares false with
// everything, so the heap would file it anywhere and fire 0.5, 2, 1,
// NaN with Now left at NaN; a NaN schedule stamp does the same among
// events of one instant.
func TestScheduleNaNPanics(t *testing.T) {
	s := New()
	nan := math.NaN()
	for _, ti := range []float64{0.5, 1, 2} {
		s.Schedule(ti, func() {})
	}
	mustPanic(t, "Schedule", func() { s.Schedule(nan, func() {}) })
	mustPanic(t, "After", func() { s.After(nan, func() {}) })
	mustPanic(t, "ScheduleStamped time", func() { s.ScheduleStamped(nan, 0, 1, func() {}) })
	mustPanic(t, "ScheduleStamped sched", func() { s.ScheduleStamped(1, nan, 1, func() {}) })
	if s.pending != 3 {
		t.Fatalf("a refused schedule left pending = %d, want 3", s.pending)
	}
	s.RunAll()
	if s.Now() != 2 {
		t.Fatalf("Now = %v, want 2", s.Now())
	}
}

// TestNegativeZeroIsZero: heap nodes order fire times by their bit
// patterns, where -0 would sort after every positive time.
func TestNegativeZeroIsZero(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(5e-324, func() { got = append(got, "tiny") })
	s.Schedule(0, func() { got = append(got, "zero") })
	s.Schedule(math.Copysign(0, -1), func() {
		got = append(got, "negzero")
		if math.Signbit(s.Now()) {
			t.Error("Now is -0 inside an event scheduled at -0, want +0")
		}
	})
	s.ScheduleStamped(math.Copysign(0, -1), math.Copysign(0, -1), 0, func() { got = append(got, "stamped") })
	if next, _ := s.NextTime(); next != 0 {
		t.Fatalf("NextTime = %v, want 0", next)
	}
	s.RunAll()
	if want := "[stamped zero negzero tiny]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// TestPanicInHandler: a handler that panics (and whose caller recovers)
// leaves the engine coherent — the event counts as fired, and the run
// resumes with the next one.
func TestPanicInHandler(t *testing.T) {
	s := New()
	var got []float64
	note := func() { got = append(got, s.Now()) }
	s.Schedule(1, func() { panic("boom") })
	s.Schedule(2, note)
	s.Schedule(3, note)
	mustPanic(t, "handler", s.RunAll)
	s.Schedule(1.5, note)
	if next, ok := s.NextTime(); !ok || next != 1.5 || s.pending != 3 {
		t.Fatalf("after the panic: next %v %v, pending %d; want 1.5 true, 3", next, ok, s.pending)
	}
	s.RunAll()
	if fmt.Sprint(got) != "[1.5 2 3]" {
		t.Fatalf("fired at %v, want [1.5 2 3]", got)
	}
}

func TestPending(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.pending != 2 {
		t.Fatalf("pending = %d, want 2", s.pending)
	}
	s.Cancel(e)
	if s.pending != 1 {
		t.Fatalf("pending after cancel = %d, want 1", s.pending)
	}
}

// TestPropertyFiringOrder checks, over random schedules, that events
// fire in nondecreasing time order and that equal times respect
// scheduling order.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := New()
		type fired struct {
			t   float64
			seq int
		}
		var got []fired
		for i, r := range raw {
			ti := float64(r % 50) // many collisions
			i := i
			s.Schedule(ti, func() { got = append(got, fired{ti, i}) })
		}
		s.RunAll()
		if len(got) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].t != got[j].t {
				return got[i].t < got[j].t
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		// Sorted-ness must be strict equality with a stable sort of
		// the input.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRunOnEmptyQueue(t *testing.T) {
	s := New()
	s.Run(10)
	if s.Now() != 10 {
		t.Errorf("Run on empty queue left Now = %v, want 10", s.Now())
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEventTime(t *testing.T) {
	s := New()
	s.Schedule(1.5, func() {})
	if next, ok := s.NextTime(); !ok || next != 1.5 {
		t.Errorf("time = %v %v", next, ok)
	}
}
