package sesstab

import (
	"sort"
	"testing"
)

type fuzzVal struct {
	serial int
	k      float64
}

// FuzzTable plays byte scripts of Put/Insert/Get/Delete/Take/Len/Range
// against a map[int]fuzzVal reference. Ids come from the shapes a switch sees: a
// window that slides or jumps upwards (retiring the ids it leaves
// behind, one in sixteen staying on as a long-lived straggler), ids
// behind the window (where the stragglers are), and far outliers. The
// layout half — what the paged table promises beyond the map's
// behaviour — is the layout type, in layout_test.go.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 1, 4, 1, 6, 0})
	// Fill a window, slide it away, reach back for a straggler.
	f.Add([]byte{0, 5, 0, 21, 0, 37, 0, 53, 7, 31, 7, 31, 7, 31, 0, 3, 6, 0, 4, 64, 4, 65, 6, 0})
	// Far outliers on both sides of a page boundary, then gone.
	f.Add([]byte{0, 192, 0, 193, 0, 255, 6, 0, 4, 192, 4, 255, 4, 193, 6, 0, 0, 9})
	// One id put and deleted across a page boundary (the spare).
	f.Add([]byte{0, 15, 0, 16, 4, 16, 0, 16, 4, 16, 0, 16, 4, 15, 4, 16, 5, 0})
	// One outlier put and deleted in a chunk of its own (the spare
	// chunk), then a window that slides over a chunk boundary.
	f.Add([]byte{0, 1, 0, 192, 4, 192, 0, 193, 6, 0, 4, 193, 0, 192, 3, 192, 4, 192, 6, 0,
		7, 255, 0, 3, 7, 255, 0, 3, 6, 0})
	// Steps down: an id in the chunk below a window that has moved up,
	// then an "outlier" far below a window that has jumped past it.
	f.Add([]byte{7, 31, 7, 31, 7, 31, 7, 31, 7, 31, 7, 31, 7, 31, 7, 31, 0, 0, 0, 138, 6, 0,
		7, 255, 7, 255, 0, 0, 0, 192, 3, 192, 6, 0, 4, 192, 4, 0})
	// A straggler, then the window creeps two pages a step, ten chunks
	// up, freeing every chunk but the straggler's behind it; then a jump
	// ahead, and a reach back for both.
	creep := []byte{0, 5}
	for i := 0; i < 80; i++ {
		creep = append(creep, 7, 31, 0, 0)
	}
	creep = append(creep, 6, 0, 7, 255, 0, 1, 3, 128, 6, 0, 4, 128, 6, 0)
	f.Add(creep)
	// Insert on a live id keeps its state and reports false; Insert
	// after a Delete or a Take goes in.
	f.Add([]byte{0, 3, 8, 3, 3, 3, 8, 4, 8, 4, 4, 3, 8, 3, 9, 4, 8, 4, 6, 0})
	// Take of absent ids: one never put, one taken already, one in a
	// page the directory lacks, and one far outside it.
	f.Add([]byte{9, 7, 0, 7, 9, 7, 9, 7, 9, 40, 9, 192, 3, 7, 6, 0})
	// Take empties a page and then a chunk (an outlier alone in its
	// own), and the next Inserts take the spares.
	f.Add([]byte{8, 1, 8, 192, 9, 192, 6, 0, 8, 193, 3, 193, 9, 193, 8, 194, 9, 1, 6, 0, 8, 17, 9, 17, 8, 18, 6, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		var tb Table[fuzzVal]
		ref := map[int]fuzzVal{}
		lay := newLayout(&tb)
		window, serial := 0, 0
		pick := func(a byte) int {
			switch a >> 6 {
			case 2: // behind the window
				id := window - 1 - int(a&63)*3
				if id < 0 {
					id = 0
				}
				return id
			case 3: // far outlier
				return 1<<14 + int(a&63)*1009
			}
			return window + int(a&127)
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, a := script[i]%10, script[i+1]
			id := pick(a)
			switch op {
			case 0, 1, 2:
				serial++
				v := fuzzVal{serial: serial, k: float64(id)}
				p := tb.Put(id, v)
				if *p != v {
					t.Fatalf("step %d: Put(%d) returned a slot holding %+v, want %+v", i/2, id, *p, v)
				}
				ref[id] = v
				lay.put(t, id, p)
			case 3:
				g := tb.Get(id)
				want, ok := ref[id]
				if (g != nil) != ok || ok && *g != want {
					t.Fatalf("step %d: Get(%d) = %v, reference %+v present=%v", i/2, id, g, want, ok)
				}
				if tb.Get(-1-id) != nil {
					t.Fatalf("step %d: Get(%d) of a negative id returned state", i/2, -1-id)
				}
			case 4, 5:
				tb.Delete(id)
				delete(ref, id)
				lay.deleted(id)
			case 8:
				serial++
				v := fuzzVal{serial: serial, k: float64(id)}
				p, ok := tb.Insert(id, v)
				want, live := ref[id]
				if ok == live {
					t.Fatalf("step %d: Insert(%d) = %v with the id present=%v", i/2, id, ok, live)
				}
				if !live {
					want = v
				}
				if *p != want {
					t.Fatalf("step %d: Insert(%d) returned a slot holding %+v, want %+v", i/2, id, *p, want)
				}
				ref[id] = want
				lay.put(t, id, p)
			case 9:
				v, ok := tb.Take(id)
				want, live := ref[id]
				if ok != live || v != want {
					t.Fatalf("step %d: Take(%d) = %+v, %v; reference %+v present=%v", i/2, id, v, ok, want, live)
				}
				delete(ref, id)
				lay.deleted(id)
			case 6:
				checkRange(t, &tb, ref)
				lay.check(t, ref)
			case 7:
				next := window + 1 + int(a&31)
				if a >= 224 {
					next = window + (1+int(a&31))<<9 // a jump ahead
				}
				for id := window; id < next; id++ {
					if id%16 == 5 {
						continue // a call that outlives the window
					}
					tb.Delete(id)
					delete(ref, id)
					lay.deleted(id)
				}
				window = next
				lay.check(t, ref)
			}
			if tb.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, reference holds %d", i/2, tb.Len(), len(ref))
			}
		}
		checkRange(t, &tb, ref)
		lay.check(t, ref)
		for id, want := range ref {
			if g := tb.Get(id); g == nil || *g != want {
				t.Fatalf("final Get(%d) = %v, want %+v", id, g, want)
			}
		}
	})
}

// checkRange: Range visits exactly the reference's ids, in increasing
// order, each with its own state.
func checkRange(t *testing.T, tb *Table[fuzzVal], ref map[int]fuzzVal) {
	t.Helper()
	want := make([]int, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	sort.Ints(want)
	n := 0
	tb.Range(func(id int, v *fuzzVal) {
		if n >= len(want) || id != want[n] {
			t.Fatalf("Range visit %d is id %d, reference order %v", n, id, want)
		}
		if *v != ref[id] {
			t.Fatalf("Range handed id %d state %+v, want %+v", id, *v, ref[id])
		}
		n++
	})
	if n != len(want) {
		t.Fatalf("Range visited %d ids, reference holds %d", n, len(want))
	}
}
