// Package intern provides a table of reference-counted interned values:
// the per-node declarations that many sessions repeat. Under rules 1.3
// and 2.3 every call of one class and rate is declared the same d(L) and
// books the same (rate, L_MAX/C), so a node holding thousands of
// sessions holds a handful of entries, and each session keeps only the
// 4-byte index of its entry. LiT's ports intern their (rate, d(L))
// declarations in one (internal/core), and the admission controllers
// their bookings (internal/admission).
//
// A lookup is O(1) whatever the number of live entries: it walks one
// chain of a hash table with a bucket per entry made, the chains
// threaded through the entries. A released entry is zeroed, so a value
// it holds can be collected, and goes on the free list, so neither
// slice grows past the peak number of live entries. Entries never move
// while live: an index stays valid, and keeps addressing its key, until
// the last holder releases it.
package intern

import (
	"errors"
	"fmt"
)

// Table interns values V under keys K. The caller hashes the key: keys
// that are equal must hash equal. The zero value is an empty table
// ready for use.
type Table[K comparable, V any] struct {
	entries []Entry[K, V]
	buckets []uint32 // 1 + each chain's first entry, 0 ends
	free    uint32   // 1 + the first free entry, 0: none
}

// Entry is one interned key and its value.
type Entry[K comparable, V any] struct {
	Key K
	Val V
	// hash is the high half of the key's mixed hash, kept so a release
	// and a rehash find the bucket without the caller. refs counts the
	// holders: at 0 the entry is free. next is 1 + the index of the next
	// entry (0 ends): of the entry's hash chain while it is live, of the
	// free list while it is free.
	hash, refs, next uint32
}

// Intern returns the index of the live entry keyed k, adding one with
// a zero value when there is none (fresh), and counts one more holder.
// h is k's hash.
func (t *Table[K, V]) Intern(k K, h uint64) (i uint32, fresh bool) {
	if len(t.entries) == len(t.buckets) {
		t.rehash(max(2*len(t.buckets), 4))
	}
	hash := mix(h)
	b := &t.buckets[hash&uint32(len(t.buckets)-1)]
	for j := *b; j != 0; j = t.entries[j-1].next {
		if e := &t.entries[j-1]; e.hash == hash && e.Key == k {
			e.refs++
			return j - 1, false
		}
	}
	i = t.free - 1
	if t.free != 0 {
		t.free = t.entries[i].next
	} else {
		i = uint32(len(t.entries))
		t.entries = append(t.entries, Entry[K, V]{})
	}
	e := &t.entries[i]
	e.Key, e.hash, e.refs = k, hash, 1
	e.next, *b = *b, i+1
	return i, true
}

// Reuse counts one more holder of entry i when it is live under key k,
// without hashing: a caller's memo of the entry it last interned. An
// entry freed since may have been reused for another key, which is why
// the key is checked. It reports whether i was held.
func (t *Table[K, V]) Reuse(i uint32, k K) bool {
	if i < uint32(len(t.entries)) {
		if e := &t.entries[i]; e.refs > 0 && e.Key == k {
			e.refs++
			return true
		}
	}
	return false
}

// At returns entry i. The pointer is valid until the table next grows.
func (t *Table[K, V]) At(i uint32) *Entry[K, V] { return &t.entries[i] }

// Release counts one holder fewer of entry i, and frees the entry when
// none is left.
func (t *Table[K, V]) Release(i uint32) {
	e := &t.entries[i]
	if e.refs--; e.refs > 0 {
		return
	}
	p := &t.buckets[e.hash&uint32(len(t.buckets)-1)]
	for *p != i+1 {
		p = &t.entries[*p-1].next
	}
	*p = e.next
	*e = Entry[K, V]{next: t.free}
	t.free = i + 1
}

// rehash makes n buckets (a power of two) and chains every live entry.
func (t *Table[K, V]) rehash(n int) {
	t.buckets = make([]uint32, n)
	for i := range t.entries {
		if e := &t.entries[i]; e.refs > 0 {
			b := &t.buckets[e.hash&uint32(n-1)]
			e.next, *b = *b, uint32(i)+1
		}
	}
}

// mix is Fibonacci hashing: the high half of h times 2^64/phi.
func mix(h uint64) uint32 { return uint32(h * 0x9e3779b97f4a7c15 >> 32) }

// Census counts the table and checks its links: every live entry on
// its own bucket's chain exactly once, every other entry on the free
// list exactly once, and a bucket per entry made at most twice over. It
// returns the live entries, the entries made (live and free) and the
// buckets. The tests of the tables' users read it.
func (t *Table[K, V]) Census() (live, made, buckets int, err error) {
	made, buckets = len(t.entries), len(t.buckets)
	seen := make([]bool, made)
	walk := func(j uint32, chained bool, b int) error {
		for ; j != 0; j = t.entries[j-1].next {
			if int(j) > made || seen[j-1] {
				return fmt.Errorf("intern: a list reaches entry %d of %d twice or past the end", int(j)-1, made)
			}
			seen[j-1] = true
			if e := &t.entries[j-1]; (e.refs > 0) != chained || chained && int(e.hash&uint32(buckets-1)) != b {
				return fmt.Errorf("intern: entry %d, held %d times, is on the wrong list", j-1, e.refs)
			}
		}
		return nil
	}
	for b, j := range t.buckets {
		err = errors.Join(err, walk(j, true, b))
	}
	if err = errors.Join(err, walk(t.free, false, 0)); err != nil {
		return 0, 0, 0, err
	}
	for i, s := range seen {
		if !s {
			return 0, 0, 0, fmt.Errorf("intern: entry %d is neither chained nor free", i)
		}
		if t.entries[i].refs > 0 {
			live++
		}
	}
	if made > buckets || buckets > max(2*made, 4) {
		return 0, 0, 0, errors.New("intern: the buckets do not follow the entries made")
	}
	return live, made, buckets, nil
}
