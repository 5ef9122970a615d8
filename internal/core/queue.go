package core

import (
	"math"
	"math/bits"

	"leaveintime/internal/pq"
)

// pqueue is the contract of the sorted transmission queue. It exists
// because the queue has two real implementations a port chooses between
// (Config.Approximate): the exact pq.Heap and the approximate
// calendarQueue. Keys are transmission deadlines.
type pqueue interface {
	pq.Queue
	Len() int
}

// calendarQueue is the approximate sorted priority queue the paper
// alludes to in Section 4 ("Leave-in-Time uses an approximate sorted
// priority queue algorithm which runs in O(1) time with a small cost in
// emulation error"). Deadlines are bucketed into days of fixed width
// anchored at absolute key 0; within a day packets are served FIFO, so
// the emulation error — the amount by which service order can deviate
// from exact deadline order — is strictly bounded by the bin width.
//
// The implementation is a ring-of-bins calendar queue (Brown 1988):
// day d lives in physical bin d mod len(bins), so push and pop are
// array indexing with no map hashing. The ring wraps — one bin can hold
// entries of several days (different "years"); each element carries its
// day so the scan serving day d skips entries of future years. The
// search cursor (lastDay) only moves forward between pops, so the ring
// is traversed at most once per day of key advance; if the next
// occupied day is more than one full rotation ahead the queue falls
// back to a direct minimum scan.
//
// # Memory layout
//
// Bins are intrusive FIFO lists threaded through a single node arena
// (nodes []calNode, int32 links) with per-bin head/tail indices, so a
// ring of N bins costs 2N int32s plus one bit of occupancy — not N
// slice headers each growing its own backing array. Freed nodes go on a
// free list, so steady-state operation never allocates and resizing the
// ring only reallocates the head/tail/occupancy arrays, never the
// entries. An occupancy bitmap (one bit per bin) lets the search skip
// runs of empty bins 64 at a time with TrailingZeros instead of loading
// each bin header.
//
// # Sizing policy
//
// The ring grows when occupancy exceeds two entries per bin and shrinks
// when it falls below one entry per eight bins — an 8x hysteresis band,
// so an event density oscillating around a threshold cannot thrash
// resize. The floor is minCalendarBins regardless of the construction
// hint (the hint sizes the initial ring; it is not a shrink floor, so
// an oversized hint no longer pins an oversized ring forever). Resizing
// preserves the service order exactly: entries of one day are
// contiguous in list order in exactly one source bin, so walking source
// bins in slot order and re-appending keeps FIFO-within-day intact.
//
// Width is fixed at construction (LiT passes LMax/C: one maximum-size
// transmission time of emulation error, the bound the paper's argument
// needs).
type calendarQueue struct {
	width float64

	head  []int32  // per-bin first node, -1 when empty
	tail  []int32  // per-bin last node, -1 when empty
	occ   []uint64 // occupancy bitmap: bit s set iff head[s] >= 0
	nodes []calNode
	free  int32 // head of the free-node list, -1 when empty

	mask    int64 // len(head)-1; len is a power of two
	count   int
	lastDay int64 // <= the day of every queued entry
}

// calNode is one queued entry in the arena: the entry, its day
// (computed once at push time), and the intrusive FIFO link.
type calNode struct {
	pq.Entry
	day  int64
	next int32
}

// minCalendarBins is the smallest ring size and the shrink floor.
const minCalendarBins = 16

// newCalendarQueue builds a calendar queue with the given bin width
// (seconds of deadline). A natural width for a port of capacity C is
// LMax/C: one maximum-size transmission time of emulation error.
// hintBuckets sizes the initial ring (0 for the default).
func newCalendarQueue(width float64, hintBuckets int) *calendarQueue {
	if !(width > 0) || math.IsInf(width, 0) {
		panic("core: calendar queue needs positive finite width")
	}
	if hintBuckets <= 0 {
		hintBuckets = 64
	}
	nb := minCalendarBins
	for nb < hintBuckets {
		nb *= 2
	}
	c := &calendarQueue{width: width, free: -1}
	c.setBins(nb)
	return c
}

func (c *calendarQueue) setBins(nb int) {
	c.head = make([]int32, nb)
	c.tail = make([]int32, nb)
	for i := range c.head {
		c.head[i] = -1
		c.tail[i] = -1
	}
	c.occ = make([]uint64, (nb+63)/64)
	c.mask = int64(nb - 1)
}

// dayOf maps a key to its day (virtual bin) index. Keys must be finite
// and within int64 day range: a NaN or astronomically large deadline is
// a bug upstream, and binning it silently (the old implementation sent
// NaN to math.MinInt64) corrupts the service order, so it panics with a
// clear message instead.
func (c *calendarQueue) dayOf(key float64) int64 {
	d := math.Floor(key / c.width)
	// The in-range comparison is also false for NaN, so one guard
	// catches both; panicking with a constant string (rather than
	// formatting the key) keeps dayOf within the inlining budget on
	// the push path.
	if !(d >= -(1<<62) && d <= 1<<62) {
		panic("core: calendar queue key is NaN or its bin overflows int64")
	}
	return int64(d)
}

// slot maps a day to its physical bin. len(head) is a power of two, so
// masking is a correct floor-mod for negative days too.
func (c *calendarQueue) slot(day int64) int { return int(day & c.mask) }

func (c *calendarQueue) allocNode() int32 {
	if c.free >= 0 {
		idx := c.free
		c.free = c.nodes[idx].next
		return idx
	}
	c.nodes = append(c.nodes, calNode{})
	return int32(len(c.nodes) - 1)
}

func (c *calendarQueue) freeNode(idx int32) {
	n := &c.nodes[idx]
	n.P = nil // release the packet reference; push overwrites the rest
	n.next = c.free
	c.free = idx
}

// appendNode links an already-filled node at the tail of its day's bin.
func (c *calendarQueue) appendNode(idx int32) {
	n := &c.nodes[idx]
	n.next = -1
	s := c.slot(n.day)
	if t := c.tail[s]; t >= 0 {
		c.nodes[t].next = idx
	} else {
		c.head[s] = idx
		c.occ[s>>6] |= 1 << (uint(s) & 63)
	}
	c.tail[s] = idx
}

func (c *calendarQueue) Push(e pq.Entry) {
	day := c.dayOf(e.Key)
	if c.count == 0 || day < c.lastDay {
		c.lastDay = day
	}
	idx := c.allocNode()
	n := &c.nodes[idx]
	n.Entry = e
	n.day = day
	c.appendNode(idx)
	c.count++
	if nb := len(c.head); c.count > 2*nb {
		c.rebuild(2 * nb)
	}
}

func (c *calendarQueue) PopMin() (pq.Entry, bool) {
	idx, prev, day, ok := c.search()
	if !ok {
		return pq.Entry{}, false
	}
	n := &c.nodes[idx]
	e := n.Entry
	// Unlink from the bin's FIFO list.
	s := c.slot(day)
	if prev >= 0 {
		c.nodes[prev].next = n.next
	} else {
		c.head[s] = n.next
		if n.next < 0 {
			c.occ[s>>6] &^= 1 << (uint(s) & 63)
		}
	}
	if c.tail[s] == idx {
		c.tail[s] = prev
	}
	c.freeNode(idx)
	c.lastDay = day
	c.count--
	if nb := len(c.head); nb > minCalendarBins && c.count < nb/8 {
		c.rebuild(nb / 2)
	}
	return e, true
}

// search locates the next entry to serve: the first-pushed entry of the
// smallest occupied day. It returns the node index, its list
// predecessor (-1 when it is the bin head), and its day. It relies on
// the invariant that lastDay never exceeds the day of any queued entry.
func (c *calendarQueue) search() (idx, prev int32, day int64, ok bool) {
	if c.count == 0 {
		return -1, -1, 0, false
	}
	nb := len(c.head)
	s0 := c.slot(c.lastDay)
	// One rotation starting at lastDay's slot, skipping empty bins 64 at
	// a time through the occupancy bitmap. Within the first rotation each
	// day maps to a distinct slot, so slot ring-distance recovers the day.
	for k := 0; k < nb; {
		s := s0 + k
		if s >= nb {
			s -= nb
		}
		w := c.occ[s>>6] >> (uint(s) & 63)
		if w == 0 {
			// The rest of this word is empty; jump to the next word
			// boundary.
			k += 64 - (s & 63)
			continue
		}
		z := bits.TrailingZeros64(w)
		s += z
		k += z
		if k >= nb || s >= nb {
			break
		}
		d := c.lastDay + int64(k)
		p := int32(-1)
		for i := c.head[s]; i >= 0; i = c.nodes[i].next {
			if c.nodes[i].day == d {
				return i, p, d, true
			}
			p = i
		}
		k++ // occupied, but only by entries of future years
	}
	// Nothing within one rotation: the next day is over a year ahead.
	// Find the minimum day directly and serve its first entry.
	best := int64(math.MaxInt64)
	for s := 0; s < nb; s++ {
		if c.occ[s>>6]&(1<<(uint(s)&63)) == 0 {
			continue
		}
		for i := c.head[s]; i >= 0; i = c.nodes[i].next {
			if c.nodes[i].day < best {
				best = c.nodes[i].day
			}
		}
	}
	s := c.slot(best)
	p := int32(-1)
	for i := c.head[s]; i >= 0; i = c.nodes[i].next {
		if c.nodes[i].day == best {
			return i, p, best, true
		}
		p = i
	}
	panic("core: calendar queue lost an entry")
}

// rebuild redistributes all entries into a ring of nb bins. Entries of
// one day are contiguous in list order in exactly one source bin, so
// walking source bins in slot order and re-appending preserves the
// FIFO-within-day service order — pop results are identical across
// resizes.
func (c *calendarQueue) rebuild(nb int) {
	if nb < minCalendarBins {
		nb = minCalendarBins
	}
	if nb == len(c.head) {
		return
	}
	oldHead := c.head
	c.setBins(nb)
	minDay := int64(math.MaxInt64)
	for s := range oldHead {
		for idx := oldHead[s]; idx >= 0; {
			n := &c.nodes[idx]
			next := n.next
			if n.day < minDay {
				minDay = n.day
			}
			c.appendNode(idx)
			idx = next
		}
	}
	if c.count > 0 {
		c.lastDay = minDay
	}
}

func (c *calendarQueue) Len() int { return c.count }
