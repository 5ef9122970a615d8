package intern

import (
	"testing"

	"leaveintime/internal/rng"
)

// TestTableAgainstMap plays random Intern, Reuse and Release steps over
// a few dozen keys, some hashing alike, against a map of holder counts:
// an index keeps its key while held, Reuse holds only a live entry of
// its key (a freed entry's index, reused for another key, is refused),
// and after every step Census finds the links whole, one live entry per
// held key and no more entries made than were ever live at once.
func TestTableAgainstMap(t *testing.T) {
	type key struct{ a, b uint64 }
	hash := func(k key) uint64 { return k.a % 7 } // many keys share a chain
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		var tab Table[key, int]
		held := map[key]int{}     // key -> holders
		index := map[key]uint32{} // held key -> its entry
		var holds []key           // one element per holder
		peak := 0
		for step := 0; step < 20000; step++ {
			k := key{uint64(r.Intn(40)), uint64(r.Intn(2))}
			switch op := r.Intn(3); {
			case op == 0 && len(holds) > 0:
				n := r.Intn(len(holds))
				k = holds[n]
				holds[n] = holds[len(holds)-1]
				holds = holds[:len(holds)-1]
				tab.Release(index[k])
				if held[k]--; held[k] == 0 {
					delete(held, k)
					delete(index, k)
				}
			case op == 1:
				i, fresh := tab.Intern(k, hash(k))
				if fresh != (held[k] == 0) || !fresh && i != index[k] {
					t.Fatalf("seed %d step %d: Intern(%v) = %d, fresh %v; %d holders at entry %d", seed, step, k, i, fresh, held[k], index[k])
				}
				if fresh {
					tab.At(i).Val = int(k.a)
				}
				held[k]++
				index[k] = i
				holds = append(holds, k)
			default:
				i := uint32(r.Intn(len(tab.entries) + 1))
				j, live := index[k]
				if got := tab.Reuse(i, k); got != (live && i == j) {
					t.Fatalf("seed %d step %d: Reuse(%d, %v) = %v; held %v at entry %d", seed, step, i, k, got, live, j)
				} else if got {
					held[k]++
					holds = append(holds, k)
				}
			}
			live, made, _, err := tab.Census()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			peak = max(peak, live)
			if live != len(held) || made > peak {
				t.Fatalf("seed %d step %d: %d live of %d made, %d keys held, %d at the peak", seed, step, live, made, len(held), peak)
			}
			for k, i := range index {
				if e := tab.At(i); e.Key != k || e.Val != int(k.a) {
					t.Fatalf("seed %d step %d: entry %d holds %v = %d, want %v", seed, step, i, e.Key, e.Val, k)
				}
			}
		}
	}
}
