// Package pq is the queue kernel under every service discipline: one
// priority queue of packets keyed by (key, stamp), one FIFO of packets,
// and one purge for each.
//
// A sorted-priority discipline is a key assignment over one priority
// queue (the paper's server is "a delay regulator plus a sorted
// transmission queue", eqs. 6-11; each baseline of its Section 4 is the
// same object with a different key). Stamps are unique per queue, so
// (key, stamp) is a total order and the pop sequence is a pure function
// of the entries pushed: neither how the queue stores them nor the way a
// purge rebuilds it can be observed. That is what lets every discipline
// share this one implementation and keep byte-identical output.
//
// The keys a discipline pushes mostly arrive in order. At the next hop a
// jitter-controlled Leave-in-Time packet is eligible at
// max(E, K_{i-1}) + d_max + L_MAX/C + Γ (eqs. 9-11, d_i cancelled), so
// a regulator receives its keys almost exactly in arrival order, and a
// transmission queue of equal sessions receives its deadlines so too.
// Heap is built for that: an in-order push is an append, a pop is an
// index increment, and only a push that arrives out of order pays for
// a heap.
package pq

import (
	"slices"

	"leaveintime/internal/packet"
)

// Entry is a queued packet with its priority key and an arrival stamp
// for deterministic tie-breaking.
type Entry struct {
	P     *packet.Packet
	Key   float64
	Stamp uint64
}

func less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Stamp < b.Stamp
}

// compare is less as a three-way comparison, for slices.SortFunc.
func compare(a, b Entry) int {
	if less(a, b) {
		return -1
	}
	if less(b, a) {
		return 1
	}
	return 0
}

// Heap is an exact priority queue keyed by (Key, Stamp): a sorted run
// plus a spill heap. A push not less than the run's tail joins the run,
// a ring of entries sorted by construction; any other push goes to the
// spill, a 4-ary min-heap. A pop takes the smaller of the run's head and
// the spill's top. Every spill entry is less than the run's tail, so the
// tail is the last entry to leave and the queue is empty exactly when
// the run is: one length check.
//
// The state sits behind one pointer, allocated by the first push: a
// server embeds two of these and most of a large network's queues are
// never pushed to, so the zero value is an empty queue eight bytes wide.
// The ring grows only when every slot holds a queued entry, so its
// array is no larger than a heap's would be. It is hand-rolled rather
// than built on container/heap: the interface-based heap boxes every
// entry into an `any` on push and pop, which costs one heap allocation
// per packet on the scheduling hot path.
type Heap struct{ q *queue }

type queue struct {
	// The run is ring[head], ring[head+1], ... wrapping at len(ring):
	// n entries sorted by (Key, Stamp). Free slots hold zero entries.
	ring    []Entry
	head, n int
	spill   heap4
}

// Len returns the number of queued entries.
func (b *Heap) Len() int {
	if b.q == nil {
		return 0
	}
	return b.q.n + len(b.q.spill)
}

// Push adds an entry.
func (b *Heap) Push(e Entry) {
	q := b.q
	if q == nil {
		q = new(queue)
		b.q = q
	}
	if q.n > 0 && less(e, q.ring[q.slot(q.n-1)]) {
		q.spill.push(e)
		return
	}
	q.append(e)
}

// PopMin removes and returns the minimum entry; ok is false when empty.
func (b *Heap) PopMin() (Entry, bool) {
	q := b.q
	if q == nil || q.n == 0 {
		return Entry{}, false
	}
	if q.spillFirst() {
		return q.spill.pop(), true
	}
	return q.popRun(), true
}

// PeekMin returns the minimum key without removing its entry.
func (b *Heap) PeekMin() (float64, bool) {
	q := b.q
	if q == nil || q.n == 0 {
		return 0, false
	}
	if q.spillFirst() {
		return q.spill[0].Key, true
	}
	return q.ring[q.head].Key, true
}

// PopDue removes and returns the minimum entry only if its key has been
// reached (Key <= now): one step of a delay regulator's release loop.
func (b *Heap) PopDue(now float64) (Entry, bool) {
	q := b.q
	if q == nil || q.n == 0 {
		return Entry{}, false
	}
	if q.spillFirst() {
		if q.spill[0].Key <= now {
			return q.spill.pop(), true
		}
	} else if q.ring[q.head].Key <= now {
		return q.popRun(), true
	}
	return Entry{}, false
}

// Purge evicts the session's packets, handing them to drop in priority
// order. The run moves into the spill's array, which is sorted and
// walked once: survivors re-enter the run with their keys and stamps, so
// their pop order is untouched, and the spill is left empty.
func (b *Heap) Purge(id int, drop func(*packet.Packet)) {
	q := b.q
	if q == nil {
		return
	}
	all := q.spill
	for q.n > 0 {
		all = append(all, q.popRun())
	}
	slices.SortFunc(all, compare)
	for _, e := range all {
		if e.P.Session == id {
			drop(e.P)
		} else {
			q.append(e)
		}
	}
	clear(all)
	q.spill = all[:0]
}

// slot is the ring index of the run's i-th entry.
func (q *queue) slot(i int) int {
	if i += q.head; i >= len(q.ring) {
		i -= len(q.ring)
	}
	return i
}

// spillFirst reports whether the spill's top precedes the run's head.
func (q *queue) spillFirst() bool {
	return len(q.spill) > 0 && less(q.spill[0], q.ring[q.head])
}

// append adds e behind the run's tail, which it must not precede.
func (q *queue) append(e Entry) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[q.slot(q.n)] = e
	q.n++
}

// popRun removes and returns the run's head.
func (q *queue) popRun() Entry {
	e := q.ring[q.head]
	q.ring[q.head] = Entry{} // release the packet reference
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return e
}

// grow doubles the full ring, unwrapping the run to its front.
func (q *queue) grow() {
	r := make([]Entry, max(2*len(q.ring), 1))
	copy(r[copy(r, q.ring[q.head:]):], q.ring[:q.head])
	q.ring, q.head = r, 0
}

// heap4 is a 4-ary min-heap keyed by (Key, Stamp): half the depth of a
// binary heap, and a sift that reads the array only and moves values
// into a hole.
type heap4 []Entry

func (h *heap4) push(e Entry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// pop removes and returns the minimum of a nonempty heap.
func (h *heap4) pop() Entry {
	s := *h
	n := len(s) - 1
	top, e := s[0], s[n]
	s[n] = Entry{} // release the packet reference
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if less(s[j], s[m]) {
				m = j
			}
		}
		if !less(s[m], e) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = e
	return top
}

// FIFO is a first-in-first-out queue of packets. The zero value is an
// empty queue.
type FIFO struct {
	items []*packet.Packet
	head  int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return len(f.items) - f.head }

// Push appends a packet.
func (f *FIFO) Push(p *packet.Packet) { f.items = append(f.items, p) }

// Pop removes and returns the oldest packet; ok is false when empty.
func (f *FIFO) Pop() (*packet.Packet, bool) {
	if f.head >= len(f.items) {
		return nil, false
	}
	p := f.items[f.head]
	f.items[f.head] = nil
	f.head++
	f.rewind()
	return p, true
}

// Purge removes every packet of the session, handing each to drop in
// queue order; the order of the remaining packets is preserved.
func (f *FIFO) Purge(id int, drop func(*packet.Packet)) {
	out := f.items[:f.head]
	for _, p := range f.items[f.head:] {
		if p.Session == id {
			drop(p)
		} else {
			out = append(out, p)
		}
	}
	for i := len(out); i < len(f.items); i++ {
		f.items[i] = nil
	}
	f.items = out
	f.rewind()
}

// rewind reuses the backing array from its start once the queue drains.
func (f *FIFO) rewind() {
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	}
}
