package event

import "testing"

// TestStampedMergeOrder verifies the three-part ordering key: fire
// time first, then schedule time, then tie — with local events (small
// ties) sorting before stamped events (top tie bit) at an identical
// (fire, sched) pair.
func TestStampedMergeOrder(t *testing.T) {
	s := New()
	var order []string
	rec := func(name string) Handler { return func() { order = append(order, name) } }

	// All fire at t=2. Local events scheduled now (sched=0); stamped
	// events carry explicit earlier/later schedule instants.
	s.Schedule(2, rec("local-a"))
	s.Schedule(2, rec("local-b"))
	s.ScheduleStamped(2, 1.0, 1<<63|7, rec("stamped-mid"))
	s.ScheduleStamped(2, 0, 1<<63|3, rec("stamped-early"))
	s.ScheduleStamped(2, 0, 1<<63|2, rec("stamped-early-low-tie"))
	s.RunAll()

	want := []string{
		"local-a", "local-b", // sched=0, ties 0,1
		"stamped-early-low-tie", "stamped-early", // sched=0, top-bit ties
		"stamped-mid", // sched=1
	}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestStampedMatchesSerialOrder verifies the serial-compatibility
// proof obligation: for events scheduled through the plain Schedule
// path, (time, sched, tie) ordering is identical to the historical
// (time, seq) ordering, including same-instant chains scheduled from
// inside handlers.
func TestStampedMatchesSerialOrder(t *testing.T) {
	s := New()
	var order []int
	var chain Handler
	n := 0
	chain = func() {
		order = append(order, n)
		n++
		if n < 5 {
			// Re-schedule at the same instant: must fire after every
			// event already scheduled for this instant at an earlier
			// clock, in scheduling order among same-instant peers.
			s.Schedule(s.Now(), chain)
		}
	}
	s.Schedule(1, chain)
	s.Schedule(1, func() { order = append(order, 100) })
	s.RunAll()
	want := []int{0, 100, 1, 2, 3, 4}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestRunBefore verifies the half-open window contract: events at
// exactly the boundary stay queued, the clock clamps forward to the
// boundary, and a later injection at the boundary instant can still
// be merged ahead of them by its schedule stamp.
func TestRunBefore(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(1, func() { order = append(order, "inside") })
	s.Schedule(2, func() { order = append(order, "boundary") })

	s.RunBefore(2)
	if len(order) != 1 || order[0] != "inside" {
		t.Fatalf("after RunBefore(2) fired %v, want [inside]", order)
	}
	if s.Now() != 2 {
		t.Fatalf("clock %v, want clamped to 2", s.Now())
	}
	if s.pending != 1 {
		t.Fatalf("pending %d, want 1 (boundary event intact)", s.pending)
	}

	// An injection at the boundary instant is merged into the heap
	// before the boundary event fires; at an equal (fire, sched) pair
	// the local event's small tie wins over the stamped top-bit tie.
	s.ScheduleStamped(2, 0, 1<<63|1, func() { order = append(order, "inject") })
	s.RunBefore(4)
	want := []string{"inside", "boundary", "inject"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Now() != 4 {
		t.Fatalf("clock %v, want clamped to 4", s.Now())
	}
}

// TestScheduleStampedPanics verifies both causality guards.
func TestScheduleStampedPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run(5)
	mustPanic(t, "past", func() { s.ScheduleStamped(4, 4, 1, func() {}) })
	mustPanic(t, "sched after fire", func() { s.ScheduleStamped(6, 7, 1, func() {}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}
