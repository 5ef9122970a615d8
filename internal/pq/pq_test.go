package pq

import (
	"sort"
	"testing"

	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
)

func pkt(session int, seq int64) *packet.Packet {
	return &packet.Packet{Session: session, Seq: seq}
}

func drain(h *Heap) []Entry {
	var out []Entry
	for {
		e, ok := h.PopMin()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestHeapPopOrderIsSort: on random input with heavy key ties, with
// pops interleaved among the pushes, the heap hands entries out in
// exactly sort order by (key, stamp) — the property that makes arity
// and purge strategy unobservable.
func TestHeapPopOrderIsSort(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := rng.New(seed)
		var h Heap
		var live, got, want []Entry
		for i := 0; i < 600; i++ {
			if r.Float64() < 0.65 || h.Len() == 0 {
				e := Entry{Key: float64(int(r.Float64() * 8)), Stamp: uint64(i)}
				h.Push(e)
				live = append(live, e)
				continue
			}
			e, _ := h.PopMin()
			got = append(got, e)
			sort.Slice(live, func(i, j int) bool { return less(live[i], live[j]) })
			want = append(want, live[0])
			live = live[1:]
		}
		got = append(got, drain(&h)...)
		sort.Slice(live, func(i, j int) bool { return less(live[i], live[j]) })
		want = append(want, live...)
		if len(got) != len(want) {
			t.Fatalf("seed %d: popped %d entries, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestPopDueBoundary: an entry is due exactly when Key <= now.
func TestPopDueBoundary(t *testing.T) {
	var h Heap
	h.Push(Entry{Key: 2, Stamp: 1})
	h.Push(Entry{Key: 3, Stamp: 2})
	if _, ok := h.PopDue(1.999999); ok {
		t.Fatal("popped an entry before its key")
	}
	if e, ok := h.PopDue(2); !ok || e.Stamp != 1 {
		t.Fatalf("Key == now not due: %+v %v", e, ok)
	}
	if _, ok := h.PopDue(2); ok {
		t.Fatal("popped key 3 at now = 2")
	}
	if e, ok := h.PopDue(10); !ok || e.Stamp != 2 {
		t.Fatalf("overdue entry not popped: %+v %v", e, ok)
	}
	if _, ok := h.PopDue(10); ok {
		t.Fatal("popped from an empty heap")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
}

// TestHeapPurge checks the purge contract: every packet of the purged
// session is dropped in (key, stamp) order and the survivors' pop order
// is untouched.
func TestHeapPurge(t *testing.T) {
	var h Heap
	// Interleave two sessions with deliberately shuffled keys.
	for i, e := range []struct {
		sess int
		seq  int64
		key  float64
	}{{1, 1, 5}, {2, 1, 3}, {1, 2, 1}, {2, 2, 4}, {1, 3, 2}, {2, 3, 2}} {
		h.Push(Entry{P: pkt(e.sess, e.seq), Key: e.key, Stamp: uint64(i + 1)})
	}
	var dropped []int64
	h.Purge(1, func(p *packet.Packet) {
		if p.Session != 1 {
			t.Fatalf("dropped packet of session %d", p.Session)
		}
		dropped = append(dropped, p.Seq)
	})
	// Session 1 keys: seq1→5, seq2→1, seq3→2: drop order by key 1,2,5.
	if want := []int64{2, 3, 1}; len(dropped) != 3 || dropped[0] != want[0] || dropped[1] != want[1] || dropped[2] != want[2] {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	if h.Len() != 3 {
		t.Fatalf("len = %d after purge", h.Len())
	}
	// Survivors pop by (key, stamp): keys 2, 3, 4.
	for _, wantSeq := range []int64{3, 1, 2} {
		e, ok := h.PopMin()
		if !ok || e.P.Session != 2 || e.P.Seq != wantSeq {
			t.Fatalf("survivor pop: got %+v, want session 2 seq %d", e.P, wantSeq)
		}
	}
	// Purging an empty heap or an absent session is a no-op.
	h.Purge(7, func(*packet.Packet) { t.Fatal("dropped from empty heap") })
}

// TestHeapPurgeKeepsSurvivorOrder: on random input, the survivors of a
// purge pop exactly as if the purged session had never been queued.
func TestHeapPurgeKeepsSurvivorOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		var purged, clean Heap
		for i := 0; i < 300; i++ {
			e := Entry{P: pkt(1+int(r.Float64()*3), int64(i)), Key: float64(int(r.Float64() * 6)), Stamp: uint64(i)}
			purged.Push(e)
			if e.P.Session != 2 {
				clean.Push(e)
			}
		}
		purged.Purge(2, func(p *packet.Packet) {
			if p.Session != 2 {
				t.Fatalf("seed %d: dropped session %d", seed, p.Session)
			}
		})
		got, want := drain(&purged), drain(&clean)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d survivors, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: survivor %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestInOrderPushesNeverSpill: keys that arrive in order, as a
// regulator's do, never touch the spill. 10^4 ascending pushes with ties,
// interleaved with pops so that the queue never drains, leave the spill
// empty and unallocated and the ring no longer than the queue's peak
// rounded up to a power of two. One push out of order then goes to the
// spill and still pops first.
func TestInOrderPushesNeverSpill(t *testing.T) {
	var h Heap
	var pushed, popped uint64
	for i := 0; i < 10000; i++ {
		pushed++
		h.Push(Entry{Key: float64(i / 3), Stamp: pushed})
		for h.Len() > 8 {
			e, _ := h.PopMin()
			if popped++; e.Stamp != popped {
				t.Fatalf("pop %d: stamp %d", popped, e.Stamp)
			}
		}
	}
	if cap(h.q.spill) != 0 {
		t.Fatalf("in-order pushes allocated a spill of %d", cap(h.q.spill))
	}
	if len(h.q.ring) > 16 {
		t.Fatalf("a queue of at most 9 holds a ring of %d", len(h.q.ring))
	}
	h.Push(Entry{Key: -1, Stamp: pushed + 1})
	if len(h.q.spill) != 1 {
		t.Fatal("an out-of-order push joined the run")
	}
	if e, _ := h.PopMin(); e.Stamp != pushed+1 {
		t.Fatalf("the out-of-order entry did not pop first: stamp %d", e.Stamp)
	}
	for _, e := range drain(&h) {
		if popped++; e.Stamp != popped {
			t.Fatalf("drain: stamp %d, want %d", e.Stamp, popped)
		}
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d", popped, pushed)
	}
}

// checkHeap asserts the queue's layout: the run is sorted by (Key,
// Stamp), the spill keeps 4-ary heap order and every spill entry is less
// than the run's tail (so the run is empty only when the spill is),
// every free ring slot holds the zero entry (no packet stays
// referenced), and Len is the run plus the spill.
func checkHeap(t *testing.T, h *Heap) {
	t.Helper()
	q := h.q
	if q == nil {
		if h.Len() != 0 {
			t.Fatalf("unallocated queue has Len %d", h.Len())
		}
		return
	}
	if q.n > len(q.ring) || q.head < 0 || len(q.ring) > 0 && q.head >= len(q.ring) {
		t.Fatalf("run of %d at head %d in a ring of %d", q.n, q.head, len(q.ring))
	}
	for i := 1; i < q.n; i++ {
		if !less(q.ring[q.slot(i-1)], q.ring[q.slot(i)]) {
			t.Fatalf("run out of order at %d: %+v then %+v", i, q.ring[q.slot(i-1)], q.ring[q.slot(i)])
		}
	}
	for i := q.n; i < len(q.ring); i++ {
		if e := q.ring[q.slot(i)]; e != (Entry{}) {
			t.Fatalf("free ring slot %d holds %+v", q.slot(i), e)
		}
	}
	for i := 1; i < len(q.spill); i++ {
		if less(q.spill[i], q.spill[(i-1)/4]) {
			t.Fatalf("spill heap order broken at %d", i)
		}
	}
	for _, e := range q.spill {
		if q.n == 0 || !less(e, q.ring[q.slot(q.n-1)]) {
			t.Fatalf("spill entry %+v not below the run's tail (run of %d)", e, q.n)
		}
	}
	if h.Len() != q.n+len(q.spill) {
		t.Fatalf("Len %d, run %d + spill %d", h.Len(), q.n, len(q.spill))
	}
}

// TestFIFOPurge checks the FIFO purge: queue order both of the dropped
// packets and of the survivors is preserved, including after partial
// pops moved the head.
func TestFIFOPurge(t *testing.T) {
	var f FIFO
	f.Push(pkt(1, 1))
	f.Push(pkt(2, 1))
	f.Push(pkt(1, 2))
	f.Push(pkt(2, 2))
	if p, ok := f.Pop(); !ok || p.Session != 1 || p.Seq != 1 {
		t.Fatalf("pop head: %+v", p)
	}
	var dropped []int64
	f.Purge(2, func(p *packet.Packet) { dropped = append(dropped, p.Seq) })
	if len(dropped) != 2 || dropped[0] != 1 || dropped[1] != 2 {
		t.Fatalf("dropped %v, want [1 2]", dropped)
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d", f.Len())
	}
	if p, ok := f.Pop(); !ok || p.Session != 1 || p.Seq != 2 {
		t.Fatalf("survivor: %+v", p)
	}
	// Fully drained: internal storage resets.
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from drained FIFO succeeded")
	}
	if f.head != 0 || len(f.items) != 0 {
		t.Fatalf("drained FIFO did not rewind: head %d, %d items", f.head, len(f.items))
	}
	f.Purge(1, func(*packet.Packet) { t.Fatal("dropped from empty FIFO") })
}

// FuzzHeapOrder drives the heap with an operation stream decoded from
// fuzz bytes — pushes with heavily tied keys, pops, due-pops and purges
// — against a sorted-slice model: every pop must return the model's
// (key, stamp) minimum, a purge must drop exactly the session's entries
// in that order, and checkHeap holds after every operation. The corpus
// in testdata/fuzz/FuzzHeapOrder adds a regulator's pattern: ascending
// keys with ties and rare inversions, due-pops, and a purge mid-stream.
func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 9, 0, 0, 255, 17})
	f.Add([]byte{0})
	f.Add([]byte{4, 4, 4, 4, 2, 0, 3, 1, 4, 4, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Heap
		var model []Entry // kept sorted by (key, stamp)
		var stamp uint64
		for i := 0; i+1 < len(data); i += 2 {
			op, val := data[i], data[i+1]
			switch {
			case op%4 == 0 || len(model) == 0:
				stamp++
				e := Entry{P: pkt(int(val%3), int64(stamp)), Key: float64(val % 8), Stamp: stamp}
				h.Push(e)
				at := sort.Search(len(model), func(j int) bool { return less(e, model[j]) })
				model = append(model[:at], append([]Entry{e}, model[at:]...)...)
			case op%4 == 1:
				e, ok := h.PopMin()
				if !ok || e != model[0] {
					t.Fatalf("PopMin = %+v %v, want %+v", e, ok, model[0])
				}
				model = model[1:]
			case op%4 == 2:
				now := float64(val % 8)
				e, ok := h.PopDue(now)
				if due := model[0].Key <= now; ok != due || (ok && e != model[0]) {
					t.Fatalf("PopDue(%v) = %+v %v with minimum %+v", now, e, ok, model[0])
				}
				if ok {
					model = model[1:]
				}
			default:
				id := int(val % 3)
				var keep, want []Entry
				for _, e := range model {
					if e.P.Session == id {
						want = append(want, e)
					} else {
						keep = append(keep, e)
					}
				}
				model = keep
				h.Purge(id, func(p *packet.Packet) {
					if len(want) == 0 || want[0].P != p {
						t.Fatalf("purge(%d) dropped %+v out of order", id, p)
					}
					want = want[1:]
				})
				if len(want) != 0 {
					t.Fatalf("purge(%d) left %d entries behind", id, len(want))
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", h.Len(), len(model))
			}
			checkHeap(t, &h)
		}
		for _, want := range model {
			if e, ok := h.PopMin(); !ok || e != want {
				t.Fatalf("drain: %+v %v, want %+v", e, ok, want)
			}
		}
		if _, ok := h.PopMin(); ok {
			t.Fatal("empty heap popped")
		}
	})
}
