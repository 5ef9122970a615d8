// Package pq is the queue kernel under every service discipline: one
// min-heap of packets keyed by (key, stamp), one FIFO of packets, and
// one purge for each.
//
// A sorted-priority discipline is a key assignment over one priority
// queue (the paper's server is "a delay regulator plus a sorted
// transmission queue", eqs. 6-11; each baseline of its Section 4 is the
// same object with a different key). Stamps are unique per queue, so
// (key, stamp) is a total order and the pop sequence is a pure function
// of the entries pushed: neither the heap's arity nor the way a purge
// rebuilds it can be observed. That is what lets every discipline share
// this one implementation and keep byte-identical output.
package pq

import "leaveintime/internal/packet"

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

// Heap is an exact 4-ary min-heap keyed by (Key, Stamp). It is
// hand-rolled rather than built on container/heap: the interface-based
// heap boxes every entry into an `any` on push and pop, which costs one
// heap allocation per packet on the scheduling hot path. The zero value
// is an empty heap.
type Heap struct{ h []Entry }

// Len returns the number of queued entries.
func (b *Heap) Len() int { return len(b.h) }

// Push adds an entry.
func (b *Heap) Push(e Entry) {
	b.h = append(b.h, e)
	h := b.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// PopMin removes and returns the minimum entry; ok is false when empty.
func (b *Heap) PopMin() (Entry, bool) {
	h := b.h
	n := len(h)
	if n == 0 {
		return Entry{}, false
	}
	min := h[0]
	e := h[n-1]
	h[n-1] = Entry{} // release the packet reference
	h = h[:n-1]
	b.h = h
	if n := len(h); n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if less(h[j], h[m]) {
					m = j
				}
			}
			if !less(h[m], e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return min, true
}

// PeekMin returns the minimum key without removing its entry.
func (b *Heap) PeekMin() (float64, bool) {
	if len(b.h) == 0 {
		return 0, false
	}
	return b.h[0].Key, true
}

// PopDue removes and returns the minimum entry only if its key has been
// reached (Key <= now): one step of a delay regulator's release loop.
func (b *Heap) PopDue(now float64) (Entry, bool) {
	if len(b.h) == 0 || b.h[0].Key > now {
		return Entry{}, false
	}
	return b.PopMin()
}

// Purge evicts the session's packets: it drains the heap, hands the
// packets of session id to drop in priority order, and re-pushes the
// rest. Survivors keep their keys and stamps, so their pop order is
// untouched.
func (b *Heap) Purge(id int, drop func(*packet.Packet)) {
	var keep []Entry
	for {
		e, ok := b.PopMin()
		if !ok {
			break
		}
		if e.P.Session == id {
			drop(e.P)
		} else {
			keep = append(keep, e)
		}
	}
	for _, e := range keep {
		b.Push(e)
	}
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
