package sesstab

import (
	"testing"
)

type state struct {
	kPrev   float64
	started bool
}

func TestPutGetDelete(t *testing.T) {
	var tb Table[state]
	if tb.Get(0) != nil || tb.Len() != 0 {
		t.Fatal("zero table not empty")
	}
	p := tb.Put(3, state{kPrev: 1.5})
	if p.kPrev != 1.5 {
		t.Fatalf("Put returned wrong slot: %+v", *p)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if g := tb.Get(3); g == nil || g.kPrev != 1.5 {
		t.Fatalf("Get(3) = %v", g)
	}
	// Absent IDs inside and outside the grown range.
	if tb.Get(2) != nil || tb.Get(100) != nil || tb.Get(-1) != nil {
		t.Fatal("absent id returned state")
	}
	// Replace keeps Len stable.
	tb.Put(3, state{kPrev: 2.5})
	if tb.Len() != 1 || tb.Get(3).kPrev != 2.5 {
		t.Fatalf("replace: len=%d state=%+v", tb.Len(), *tb.Get(3))
	}
	tb.Delete(3)
	if tb.Get(3) != nil || tb.Len() != 0 {
		t.Fatal("Delete left state behind")
	}
	// Deleting an absent or out-of-range id is a no-op.
	tb.Delete(3)
	tb.Delete(1000)
	tb.Delete(-5)
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after no-op deletes", tb.Len())
	}
}

// TestDeleteZeroesSlot: a deleted slot must not pin its old value —
// the memory a stale pointer still reaches is zero, so re-inserting the
// id (or reusing the page) cannot resurrect stale fields.
func TestDeleteZeroesSlot(t *testing.T) {
	var tb Table[state]
	tb.Put(1, state{kPrev: 1})
	p := tb.Put(0, state{kPrev: 9, started: true})
	tb.Delete(0)
	if *p != (state{}) {
		t.Fatalf("slot not zeroed: %+v", *p)
	}
	if g := tb.Get(1); g == nil || g.kPrev != 1 {
		t.Fatalf("Delete(0) disturbed id 1: %v", g)
	}
}

func TestGrowthPreservesState(t *testing.T) {
	var tb Table[state]
	for id := 0; id < 200; id++ {
		tb.Put(id, state{kPrev: float64(id)})
	}
	if tb.Len() != 200 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for id := 0; id < 200; id++ {
		if g := tb.Get(id); g == nil || g.kPrev != float64(id) {
			t.Fatalf("Get(%d) = %v after growth", id, g)
		}
	}
}

func TestNegativeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(-1) did not panic")
		}
	}()
	var tb Table[state]
	tb.Put(-1, state{})
}

func TestRangeOrderAndSkips(t *testing.T) {
	var tb Table[state]
	for _, id := range []int{7, 2, 11, 4} {
		tb.Put(id, state{kPrev: float64(id)})
	}
	tb.Delete(4)
	var got []int
	tb.Range(func(id int, v *state) {
		if v.kPrev != float64(id) {
			t.Fatalf("Range handed id %d state %+v", id, *v)
		}
		got = append(got, id)
	})
	want := []int{2, 7, 11}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v, want increasing %v", got, want)
		}
	}
}

// TestGetAllocationFree pins the hot-path contract: lookups never
// allocate (hit or miss).
func TestGetAllocationFree(t *testing.T) {
	var tb Table[state]
	for id := 0; id < 48; id++ {
		tb.Put(id, state{kPrev: float64(id)})
	}
	var s float64
	if n := testing.AllocsPerRun(1000, func() {
		if g := tb.Get(17); g != nil {
			s += g.kPrev
		}
		if g := tb.Get(10_000); g != nil {
			s += g.kPrev
		}
	}); n != 0 {
		t.Errorf("Get allocates %v per call pair", n)
	}
	benchSink = s
}

var benchSink float64

// TestBoundaryChurnReuses: an id put and deleted (or inserted and
// taken) alone in its page and chunk, as the next call beside a full
// window of standing calls is, allocates nothing once warm, and a window
// sliding across 16 chunk boundaries runs on the chunks it started with
// plus the spare.
func TestBoundaryChurnReuses(t *testing.T) {
	var tb Table[state]
	for id := 0; id < 256; id++ {
		tb.Put(id, state{})
	}
	id := 256
	if n := testing.AllocsPerRun(1000, func() {
		tb.Put(id, state{})
		tb.Delete(id)
		id++
	}); n != 0 {
		t.Errorf("a lone id beside a full chunk allocates %v per put and delete", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tb.Insert(id, state{})
		tb.Take(id)
		id++
	}); n != 0 {
		t.Errorf("a lone id beside a full chunk allocates %v per insert and take", n)
	}
	var win Table[state]
	const live = 300 // two or three chunks
	for id := 0; id < live; id++ {
		win.Put(id, state{})
	}
	seen := map[*chunk[state]]bool{}
	for next := live; next < live+16*256; next++ {
		if next%2 == 0 {
			win.Put(next, state{})
			win.Delete(next - live)
		} else {
			win.Insert(next, state{})
			win.Take(next - live)
		}
		for _, c := range win.dir {
			seen[c] = true
		}
	}
	if len(seen) > 4 {
		t.Errorf("a window of %d ids used %d chunks crossing 16 chunk boundaries, want at most 4", live, len(seen))
	}
}
