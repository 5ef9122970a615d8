package core

import (
	"math"
	"unsafe"
)

// decl is one interned declaration at a port: the reserved rate and
// the d(L) of every session that reached the port holding the same
// closure and the same rate, with d at the last length any of them
// sent. The memo is shared exactly: d is a pure function of the length.
type decl struct {
	d    func(length float64) float64 // nil: d = L/r (VirtualClock)
	rate float64
	// lastLen starts as NaN, which equals no length, so the first
	// packet always computes d.
	lastLen, lastD float64
	// refs counts the sessions holding the entry. At 0 the entry is
	// free and its d is nil. next is 1 + the index of the next entry
	// (0 ends): of the entry's hash chain while it is live, of the free
	// list while it is free.
	refs, next uint32
}

func (e *decl) delay(length float64) float64 {
	if length != e.lastLen {
		e.lastLen = length
		if e.d != nil {
			e.lastD = e.d(length)
		} else {
			// VirtualClock special case: d = L/r (AC procedure 1, one class).
			e.lastD = length / e.rate
		}
	}
	return e.lastD
}

func (e *decl) is(d func(float64) float64, rate float64) bool {
	return closureID(e.d) == closureID(d) && math.Float64bits(e.rate) == math.Float64bits(rate)
}

// decls is a port's table of reference-counted declarations. Under
// rules 1.3 and 2.3 every call of one class and rate is declared the
// same d(L), and the admission and System memos hand every such call
// the same closure, so a port holding thousands of sessions holds a
// handful of entries.
//
// A lookup is O(1) whatever the number of live entries: it walks one
// chain of a hash table with a bucket per entry made, the chains
// threaded through the entries. A released entry drops its d, so the
// closure can be collected, and goes on the free list, so neither
// slice grows past the peak number of live entries.
type decls struct {
	entries []decl
	buckets []uint32 // 1 + each chain's first entry, 0 ends
	free    uint32   // 1 + the first free entry, 0: none
}

// intern returns the entry for (d, rate), adding one if none is live,
// and counts one more session holding it.
func (t *decls) intern(d func(float64) float64, rate float64) uint32 {
	if len(t.entries) == len(t.buckets) {
		t.rehash(max(2*len(t.buckets), 4))
	}
	b := t.bucket(d, rate)
	for j := *b; j != 0; j = t.entries[j-1].next {
		if e := &t.entries[j-1]; e.is(d, rate) {
			e.refs++
			return j - 1
		}
	}
	i := t.free - 1
	if t.free != 0 {
		t.free = t.entries[i].next
	} else {
		i = uint32(len(t.entries))
		t.entries = append(t.entries, decl{})
	}
	e := &t.entries[i]
	e.d, e.rate, e.lastLen, e.refs = d, rate, math.NaN(), 1
	e.next, *b = *b, i+1
	return i
}

// release counts one session fewer holding entry i, and frees the
// entry when none is left.
func (t *decls) release(i uint32) {
	e := &t.entries[i]
	if e.refs--; e.refs > 0 {
		return
	}
	p := t.bucket(e.d, e.rate)
	for *p != i+1 {
		p = &t.entries[*p-1].next
	}
	*p = e.next
	e.d = nil
	e.next, t.free = t.free, i+1
}

// rehash makes n buckets (a power of two) and chains every live entry.
func (t *decls) rehash(n int) {
	t.buckets = make([]uint32, n)
	for i := range t.entries {
		if e := &t.entries[i]; e.refs > 0 {
			b := t.bucket(e.d, e.rate)
			e.next, *b = *b, uint32(i)+1
		}
	}
}

// bucket is the head of (d, rate)'s chain: the closure's identity and
// the rate's bits, mixed by Fibonacci hashing.
func (t *decls) bucket(d func(float64) float64, rate float64) *uint32 {
	h := (uint64(closureID(d)) ^ math.Float64bits(rate)) * 0x9e3779b97f4a7c15
	return &t.buckets[h>>32&uint64(len(t.buckets)-1)]
}

// closureID is a func value's identity: the address of the closure it
// points to (gc represents a func value as that one pointer), 0 for
// nil. It is the one use of unsafe in the program. The address is a
// sound key for as long as the entry keyed by it is live: the entry
// holds the func, so the closure cannot be collected and its address
// cannot be reused, and Go's heap never moves an object. Two equal
// declarations in two distinct closures get two entries, which is
// still exact; it only shares less.
func closureID(f func(float64) float64) uintptr {
	return *(*uintptr)(unsafe.Pointer(&f))
}
