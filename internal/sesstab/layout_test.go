package sesstab

import "testing"

// layout is FuzzTable's second half: what the paged table promises
// beyond a map's behaviour. A pointer handed out for an id keeps
// addressing that id's state until the id is deleted, whatever is put
// or deleted meanwhile; the table holds no more pages than live ids
// plus the one spare, no chunk without a page, and a spare chunk with
// none; and the directory spans exactly the chunks from the smallest
// live id's to the largest's.
type layout struct {
	tb   *Table[fuzzVal]
	held map[int]*fuzzVal
}

func newLayout(tb *Table[fuzzVal]) *layout {
	return &layout{tb: tb, held: map[int]*fuzzVal{}}
}

func (l *layout) put(t *testing.T, id int, p *fuzzVal) {
	t.Helper()
	if old := l.held[id]; old != nil && old != p {
		t.Fatalf("Put(%d) of a present id moved its slot", id)
	}
	l.held[id] = p
}

func (l *layout) deleted(id int) { delete(l.held, id) }

func (l *layout) check(t *testing.T, ref map[int]fuzzVal) {
	t.Helper()
	tb := l.tb
	first := true
	var lo, hi int
	for id, p := range l.held {
		if g := tb.Get(id); g != p {
			t.Fatalf("slot of id %d moved: Get = %p, handed out %p", id, g, p)
		}
		if *p != ref[id] {
			t.Fatalf("held pointer of id %d reads %+v, want %+v", id, *p, ref[id])
		}
		cn := id >> (pageBits + chunkBits)
		if first || cn < lo {
			lo = cn
		}
		if first || cn > hi {
			hi = cn
		}
		first = false
	}
	pages := 0
	for _, c := range tb.dir {
		if c == nil {
			continue
		}
		live := 0
		for j, p := range c.pages {
			if (p != nil) != (c.occ[j] != 0) {
				t.Fatalf("page %d of a chunk: present=%v, occupancy %#x", j, p != nil, c.occ[j])
			}
			if p != nil {
				live++
			}
		}
		if live == 0 {
			t.Fatal("directory holds a chunk without a page")
		}
		pages += live
	}
	if sp := tb.spare; sp != nil {
		if sp.page != nil {
			pages++
		}
		if c := sp.chunk; c != nil && (c.occ != [chunkSize]uint16{} || c.pages != [chunkSize]*[pageSize]fuzzVal{}) {
			t.Fatal("the spare chunk holds a page or an occupancy bit")
		}
	}
	if pages > len(ref)+1 {
		t.Fatalf("%d pages held for %d live ids", pages, len(ref))
	}
	if len(ref) == 0 {
		if len(tb.dir) != 0 {
			t.Fatalf("empty table keeps a directory of %d", len(tb.dir))
		}
		return
	}
	if tb.base != lo || len(tb.dir) != hi-lo+1 {
		t.Fatalf("directory spans chunks [%d, %d), live ids span chunks [%d, %d]", tb.base, tb.base+len(tb.dir), lo, hi)
	}
}
