// Package sesstab provides an index-addressed per-session state table:
// the data-oriented replacement for the map[int]*state pattern on the
// per-packet hot path, with a footprint that follows the sessions
// present and not the ids ever issued. The disciplines, the network's
// id routing and the admission controllers' bookings all keep their
// per-session state in one. What many sessions repeat belongs in an
// interned table (internal/intern), with only its index here: a LiT
// state is 24 bytes, a booking 4, so a 16-slot page of bookings is 64.
//
// Session IDs in this repository are small sequential integers (the
// System allocates them in admission order and never reuses one;
// simcheck and the tests follow the same convention), so the live ids
// of a switch under call churn are a window that slides upwards, plus
// the occasional long-lived call left far behind it. The table is a
// three-level radix of fan-out 16 over the id: a directory of chunks, a
// chunk of 16 page pointers and their occupancy words, a page of 16
// slots. A Get is three indexed loads and a bit test — branch-
// predictable, allocation-free, inlined into the discipline — where the
// map costs a hash, a bucket walk, and a cache miss on the separately-
// allocated state struct. A page is freed when its last id is deleted,
// a chunk when its last page is (one of each is kept spare), and the
// directory is trimmed to the chunks between the smallest and the
// largest live id, so standing state costs one slot per live id,
// rounded up to pages, plus eight bytes per 256 ids of span; a
// straggler pins its page and chunk, not the span above it.
//
// The span term is a precondition on callers: the directory is a slice
// with one entry per 256 ids between the smallest and the largest live
// id, so two live ids a trillion apart ask for gigabytes. Ids must come
// from an allocator that issues them in sequence (System.Connect; the
// daemon books each client's session under its own per-system
// sequence) or be bounded where they enter the program (config.Validate
// refuses a document id above 1<<24, half a megabyte of directory).
//
// Get, Put and Delete are the map's operations; Insert (put unless
// present) and Take (get and delete) do in one walk what a Get before a
// Put or a Delete would do in two, which is what booking a call and
// releasing it are.
//
// The table stores states by value, in pages that never move: a pointer
// returned by Get, Put or Insert stays valid, and keeps addressing that
// id's state, until the id is deleted.
package sesstab

import (
	"fmt"
	"math/bits"
)

const (
	pageBits  = 4
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	chunkBits = 4
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk covers 16 consecutive pages (256 ids). A page is the array of
// 16 consecutive ids' states, nil when none of them is present; occ[j]
// has bit k set when slot k of page j is. The occupancy words sit here
// and not in the pages, so a lookup reads the word and the page pointer
// from the chunk and touches the page only for a state that is there.
type chunk[T any] struct {
	occ   [chunkSize]uint16
	pages [chunkSize]*[pageSize]T
}

// Table is a per-session state table. The zero value is an empty table
// ready for use.
type Table[T any] struct {
	// dir[i] is the chunk numbered base+i, nil when it would hold no
	// page. Its first and last entries are never nil.
	dir  []*chunk[T]
	base int
	n    int
	// spare is made by the first Delete that empties a page, so a table
	// that is only ever filled does not pay for it.
	spare *spares[T]
}

// spares keeps one emptied page and one emptied chunk for the next ones
// needed, so a single id put and deleted across a page or a chunk
// boundary, or a window of ids sliding past one, does not allocate each
// time. They sit behind one pointer to keep Table, which disciplines and
// ports embed, at its size.
type spares[T any] struct {
	page  *[pageSize]T
	chunk *chunk[T]
}

// Get returns the state for id, or nil when absent. It never allocates.
func (t *Table[T]) Get(id int) *T {
	if i := id>>(pageBits+chunkBits) - t.base; uint(i) < uint(len(t.dir)) {
		if c, j := t.dir[i], id>>pageBits&chunkMask; c != nil && c.occ[j]&(1<<(id&pageMask)) != 0 {
			return &c.pages[j][id&pageMask]
		}
	}
	return nil
}

// Put inserts (or replaces) the state for id and returns its slot.
// IDs must be nonnegative.
func (t *Table[T]) Put(id int, v T) *T {
	s, _ := t.place(id)
	*s = v
	return s
}

// Insert puts v for id unless id is present, in one walk: it returns
// id's slot and whether v went in. A present id keeps its state. IDs
// must be nonnegative.
func (t *Table[T]) Insert(id int, v T) (*T, bool) {
	s, fresh := t.place(id)
	if fresh {
		*s = v
	}
	return s, fresh
}

// place returns id's slot, marking it present; fresh reports that it
// was absent, its slot zero. A chunk the directory holds is reached
// directly, chunkFor only stretches the directory or fills a gap.
func (t *Table[T]) place(id int) (s *T, fresh bool) {
	if id < 0 {
		panic(fmt.Sprintf("sesstab: negative session id %d", id))
	}
	cn := id >> (pageBits + chunkBits)
	var c *chunk[T]
	if i := cn - t.base; uint(i) < uint(len(t.dir)) && t.dir[i] != nil {
		c = t.dir[i]
	} else {
		c = t.chunkFor(cn)
	}
	j, bit := id>>pageBits&chunkMask, uint16(1)<<(id&pageMask)
	if c.occ[j]&bit != 0 {
		return &c.pages[j][id&pageMask], false
	}
	if c.pages[j] == nil {
		if sp := t.spare; sp != nil && sp.page != nil {
			c.pages[j], sp.page = sp.page, nil
		} else {
			c.pages[j] = new([pageSize]T)
		}
	}
	c.occ[j] |= bit
	t.n++
	return &c.pages[j][id&pageMask], true
}

// chunkFor returns the chunk numbered cn, stretching the directory to
// it and allocating the chunk when it has none.
func (t *Table[T]) chunkFor(cn int) *chunk[T] {
	switch {
	case len(t.dir) == 0:
		t.base = cn
		t.dir = append(t.dir, nil)
	case cn < t.base:
		// Ids mostly arrive in increasing order, so a step down is rare
		// enough to pay for a copy.
		dir := make([]*chunk[T], t.base-cn+len(t.dir))
		copy(dir[t.base-cn:], t.dir)
		t.dir, t.base = dir, cn
	default:
		for cn >= t.base+len(t.dir) {
			t.dir = append(t.dir, nil)
		}
	}
	c := t.dir[cn-t.base]
	if c == nil {
		if sp := t.spare; sp != nil && sp.chunk != nil {
			c, sp.chunk = sp.chunk, nil
		} else {
			c = new(chunk[T])
		}
		t.dir[cn-t.base] = c
	}
	return c
}

// Delete removes the state for id, zeroing its slot so freed state does
// not pin memory. Deleting an absent id is a no-op.
func (t *Table[T]) Delete(id int) {
	if s := t.Get(id); s != nil {
		t.remove(id, s)
	}
}

// Take removes the state for id and returns it, in one walk; ok is
// false, and v zero, when id is absent.
func (t *Table[T]) Take(id int) (v T, ok bool) {
	if s := t.Get(id); s != nil {
		v = *s
		t.remove(id, s)
		return v, true
	}
	return v, false
}

// remove is Delete's and Take's tail: s is present id's slot.
func (t *Table[T]) remove(id int, s *T) {
	var zero T
	*s = zero
	t.n--
	i, j := id>>(pageBits+chunkBits)-t.base, id>>pageBits&chunkMask
	c := t.dir[i]
	if c.occ[j] &^= 1 << (id & pageMask); c.occ[j] != 0 {
		return
	}
	if t.spare == nil {
		t.spare = new(spares[T])
	}
	t.spare.page, c.pages[j] = c.pages[j], nil
	if c.occ != [chunkSize]uint16{} {
		return
	}
	t.spare.chunk, t.dir[i] = c, nil // every page of c is nil now
	// Trim to the live span. The dropped head of the array is reclaimed
	// at the next append that outgrows it, which copies the span alone.
	lo, hi := 0, len(t.dir)
	for lo < hi && t.dir[lo] == nil {
		lo++
	}
	for hi > lo && t.dir[hi-1] == nil {
		hi--
	}
	t.dir, t.base = t.dir[lo:hi], t.base+lo
}

// Len returns the number of sessions present.
func (t *Table[T]) Len() int { return t.n }

// Range calls f for every present session in increasing ID order —
// a deterministic iteration order, unlike a map's. f must not Put,
// Insert, Delete or Take.
func (t *Table[T]) Range(f func(id int, v *T)) {
	for i, c := range t.dir {
		if c == nil {
			continue
		}
		for j, occ := range c.occ {
			first := ((t.base+i)<<chunkBits | j) << pageBits
			for ; occ != 0; occ &= occ - 1 {
				k := bits.TrailingZeros16(occ)
				f(first|k, &c.pages[j][k])
			}
		}
	}
}
