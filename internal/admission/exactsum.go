package admission

import "math"

// exactSum is a running sum of float64 terms held without rounding
// error: a Shewchuk expansion, as Python's math.fsum keeps one. The
// partials do not overlap, ascend in magnitude and add up, as real
// numbers, to everything added so far, so the sum depends on the set of
// terms and not on the order they came in, and adding -x takes back
// exactly what adding x put in. Terms must be finite.
//
// While every live term is one value u the sum is a run, held as
// count·u: a class whose sessions declare one rate, or one L_MAX, adds
// the same float each time. Adding ±u is then a count, and reading it
// back is one multiply, which IEEE rounds correctly, so the run reads
// the bits the expansion would. The first other term turns the run into
// the expansion exactly (two partials, hi + lo = count·u) and the
// expansion carries on from there.
type exactSum struct {
	// u and count are the run; count is 0 outside one. A run starts only
	// in an empty sum, from a term in [runMin, runMax] in magnitude, where
	// count·u splits into two floats without underflow or overflow.
	u     float64
	count int
	n     int
	// head backs the partials until a fifth is needed. A sum of reserved
	// rates or of L_MAX/C values spans few binades and rarely needs more
	// than two; keeping them in the controller's own allocation is what
	// keeps a small set-up as cheap as appending to a slice was.
	head  [4]float64
	spill []float64
}

// The run's range. The count of live terms stays far below 2^53, so
// float64(count) is exact and count·u has at most 106 significant bits:
// one rounded product and its error, neither of which leaves the normal
// range for u in these bounds.
const runMin, runMax = 0x1p-900, 0x1p900

func (s *exactSum) partials() []float64 {
	if s.spill != nil {
		return s.spill[:s.n]
	}
	return s.head[:s.n]
}

// add folds x into the sum: a count in a run, otherwise one error-free
// two-sum per partial (expand). Adding u is small enough to inline into
// the controller's loop over classes.
func (s *exactSum) add(x float64) {
	if s.count != 0 && x == s.u {
		s.count++
		return
	}
	s.expand(x)
}

// sub takes x back out of the sum: add(-x). Taking back u, as a
// controller's unbooking does, is a count inlined into its loop, as
// adding u is.
func (s *exactSum) sub(x float64) {
	if s.count != 0 && x == s.u {
		s.count--
		return
	}
	s.expand(-x)
}

// expand is add for a term the inlined counts do not take: ±u in a run,
// a term that starts a run in an empty sum, leaves the run for the
// expansion, or adds to the expansion.
func (s *exactSum) expand(x float64) {
	if s.count != 0 {
		switch x {
		case s.u:
			s.count++
			return
		case -s.u:
			s.count--
			return
		}
		s.leaveRun()
	} else if a := math.Abs(x); s.n == 0 && a >= runMin && a <= runMax {
		s.u, s.count = x, 1
		return
	}
	p := s.partials()
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	if x != 0 {
		// In place while the backing array has room; past it the partials
		// move to a new array, which from then on is the spill.
		if q := append(p[:i], x); i == cap(p) {
			s.spill = q
		}
		i++
	}
	s.n = i
}

// leaveRun writes the run as the expansion's first partials: the
// rounded product and what the rounding dropped, smaller first.
func (s *exactSum) leaveRun() {
	c := float64(s.count)
	hi := c * s.u
	lo := math.FMA(c, s.u, -hi)
	s.spill, s.count, s.n = nil, 0, 0
	if lo != 0 {
		s.head[0] = lo
		s.n = 1
	}
	s.head[s.n] = hi
	s.n++
}

// value reads the sum back correctly rounded (to nearest, ties to
// even): the one rounding between the terms and a rule comparison.
func (s *exactSum) value() float64 {
	if s.count != 0 {
		return float64(s.count) * s.u
	}
	return s.round()
}

// round is value for the expansion.
func (s *exactSum) round() float64 {
	p := s.partials()
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 && lo == 0 {
		n--
		x, y := hi, p[n]
		hi = x + y
		lo = y - (hi - x)
	}
	// hi is the rounded sum of the partials read so far and lo what that
	// rounding dropped. If lo is exactly half an ulp the tie went to even,
	// and a partial further down with lo's sign means the true sum lies
	// past the halfway point: round the other way.
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		if y := lo * 2; y == (hi+y)-hi {
			hi += y
		}
	}
	return hi
}
