package sesstab

import (
	"fmt"
	"testing"
)

// flatTable is the layout Table had before it was paged, kept as the
// benchmark's reference: one slot per id from 0 to the largest id ever
// put, doubled on growth. Its lookup is the floor (a bounds check and
// one indexed load); its footprint follows the ids issued.
type flatTable[T any] struct {
	slots []T
	ok    []bool
}

func (t *flatTable[T]) Get(id int) *T {
	if uint(id) < uint(len(t.ok)) && t.ok[id] {
		return &t.slots[id]
	}
	return nil
}

func (t *flatTable[T]) Put(id int, v T) {
	if id >= len(t.ok) {
		n := id + 1
		if n < 2*len(t.ok) {
			n = 2 * len(t.ok)
		}
		slots, ok := make([]T, n), make([]bool, n)
		copy(slots, t.slots)
		copy(ok, t.ok)
		t.slots, t.ok = slots, ok
	}
	t.slots[id], t.ok[id] = v, true
}

// BenchmarkGet compares the three lookups a discipline could pay per
// packet — the map[int]*state pattern, the flat slice and the paged
// table — at a tandem's 48 live sessions and at call-churn's 4096. The
// ids start where a long-running switch's would, past a million issued,
// which costs the map and the paged table nothing and the flat slice
// 80 MB it is not charged for here. Lookups walk the live ids in a
// fixed pseudo-random order so the 4096 case is not a prefetcher's
// stride.
func BenchmarkGet(b *testing.B) {
	const first = 1 << 20
	for _, live := range []int{48, 4096} {
		order := make([]int, live)
		for i := range order {
			order[i] = first + (i*2654435761)%live
		}
		b.Run(fmt.Sprintf("map/%d", live), func(b *testing.B) {
			m := make(map[int]*state, live)
			for i := 0; i < live; i++ {
				m[first+i] = &state{kPrev: float64(i)}
			}
			var s float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s += m[order[i%live]].kPrev
			}
			benchSink = s
		})
		b.Run(fmt.Sprintf("flat/%d", live), func(b *testing.B) {
			var tb flatTable[state]
			for i := 0; i < live; i++ {
				tb.Put(first+i, state{kPrev: float64(i)})
			}
			var s float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s += tb.Get(order[i%live]).kPrev
			}
			benchSink = s
		})
		b.Run(fmt.Sprintf("paged/%d", live), func(b *testing.B) {
			var tb Table[state]
			for i := 0; i < live; i++ {
				tb.Put(first+i, state{kPrev: float64(i)})
			}
			var s float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s += tb.Get(order[i%live]).kPrev
			}
			benchSink = s
		})
	}
}

// BenchmarkInsertTake is an admission controller's bookings under
// call-churn: 4 096 calls standing, the oldest released (Take) and a
// new one booked (Insert) each step, so the live ids are a window that
// slides upwards across pages and chunks. two-walk is the same churn as
// a Get before each Put and each Delete, the pattern Insert and Take
// replace.
func BenchmarkInsertTake(b *testing.B) {
	const live = 4096
	type booking struct {
		class       int
		rate, sigma float64
	}
	b.Run("one-walk", func(b *testing.B) {
		var tb Table[booking]
		for id := 0; id < live; id++ {
			tb.Insert(id, booking{rate: 1})
		}
		var s float64
		b.ResetTimer()
		for id := live; id < live+b.N; id++ {
			v, _ := tb.Take(id - live)
			s += v.rate
			if _, ok := tb.Insert(id, booking{rate: 1}); !ok {
				b.Fatal("a fresh id was refused")
			}
		}
		benchSink = s
	})
	b.Run("two-walk", func(b *testing.B) {
		var tb Table[booking]
		for id := 0; id < live; id++ {
			tb.Put(id, booking{rate: 1})
		}
		var s float64
		b.ResetTimer()
		for id := live; id < live+b.N; id++ {
			if v := tb.Get(id - live); v != nil {
				s += v.rate
				tb.Delete(id - live)
			}
			if tb.Get(id) != nil {
				b.Fatal("a fresh id was present")
			}
			tb.Put(id, booking{rate: 1})
		}
		benchSink = s
	})
}
