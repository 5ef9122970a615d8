package admission

import "math/bits"

// booking is what one live session added to the sums of its class and
// of every class above it. sigma is L_MAX/C as rounded when it was
// booked, so that Remove takes back the very floats Admit put in.
type booking struct {
	id          int
	class       int // 1-based; 0 marks an empty slot
	rate, sigma float64
}

// index maps the id of every live session to its booking. It is an
// open-addressed table with linear probing and backward-shift deletion
// rather than a Go map because a controller under call churn sees ids
// that never repeat: without tombstones the table stays at the size the
// live set needs and a steady admit/remove cycle allocates nothing, and
// growing a table of a few dozen ids costs a set-up no more than
// appending them to a slice did. The zero value is empty; the slots are
// made on the first insertion and never pre-sized.
type index struct {
	slots []booking // len is zero or a power of two
	n     int
}

// home is the slot the id hashes to (Fibonacci hashing: ids are mostly
// consecutive integers, which the multiplier spreads over the table).
func (x *index) home(id int) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> (64 - uint(bits.TrailingZeros(uint(len(x.slots))))))
}

// find returns the slot holding id, or -1.
func (x *index) find(id int) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(id); x.slots[i].class != 0; i = (i + 1) & mask {
		if x.slots[i].id == id {
			return i
		}
	}
	return -1
}

// insert adds b, which must not be present, keeping the table at most
// three quarters full.
func (x *index) insert(b booking) {
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]booking, max(8, 2*len(old)))
		for _, o := range old {
			if o.class != 0 {
				x.place(o)
			}
		}
	}
	x.place(b)
	x.n++
}

func (x *index) place(b booking) {
	mask := len(x.slots) - 1
	i := x.home(b.id)
	for x.slots[i].class != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = b
}

// remove empties slot i and closes the gap: every later entry of the
// same probe run that could no longer be reached from its home slot
// moves back, so no tombstone is needed.
func (x *index) remove(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].class != 0; j = (j + 1) & mask {
		// The entry at j stays if its home lies cyclically in (i, j].
		if h := x.home(x.slots[j].id); (j-h)&mask < (j-i)&mask {
			continue
		}
		x.slots[i] = x.slots[j]
		i = j
	}
	x.slots[i] = booking{}
	x.n--
}
