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
	// count·u splits into two floats without underflow or overflow. u is
	// NaN while the sum holds partials, so whenever u is a number the sum
	// is exactly count·u (0·u once a run has emptied, 0·0 in a new sum),
	// and two sums whose u compare equal add up to one multiply (plus).
	u     float64
	count int
	n     int
	// head backs the partials until another term comes with all four in
	// use. A sum of reserved rates or of L_MAX/C values spans few binades
	// and rarely needs more than two; keeping them in the controller's
	// own allocation is what keeps a small set-up as cheap as appending
	// to a slice was.
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
// controller's Remove does, is a count inlined into its loop, as adding
// u is.
func (s *exactSum) sub(x float64) {
	if s.count != 0 && x == s.u {
		s.count--
		return
	}
	s.expand(-x)
}

// one makes the empty sum s the sum of the one term x (finite, nonzero)
// without expand's call: a run, or one partial outside the run's range.
func (s *exactSum) one(x float64) {
	if a := math.Abs(x); a >= runMin && a <= runMax {
		s.u, s.count = x, 1
	} else {
		s.u, s.head[0], s.n = math.NaN(), x, 1
	}
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
		// Leave the run: it becomes the expansion's first partials.
		s.n = len(s.appendTerms(s.head[:0]))
		s.spill, s.count = nil, 0
	} else if a := math.Abs(x); s.n == 0 && a >= runMin && a <= runMax {
		s.u, s.count = x, 1
		return
	}
	s.u = math.NaN()
	// In place while the backing array has room for one more partial;
	// past it the partials move to a new array, which from then on is
	// the spill. (Storing grow's result instead would tell the compiler
	// the sum may point into itself and move every sum to the heap.)
	p := s.partials()
	if len(p) == cap(p) {
		s.spill = append(make([]float64, 0, 2*len(p)), p...)
		p = s.spill
	}
	s.n = len(grow(p, x))
}

// grow adds x to the expansion p, one error-free two-sum per partial,
// and returns the result in p's backing array while it has room.
func grow(p []float64, x float64) []float64 {
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
		return append(p[:i], x)
	}
	return p[:i]
}

// appendTerms appends the sum as an expansion to p: a run as the
// rounded product and what the rounding dropped, smaller first, or the
// partials.
func (s *exactSum) appendTerms(p []float64) []float64 {
	if s.count == 0 {
		return append(p, s.partials()...)
	}
	c := float64(s.count)
	hi := c * s.u
	if lo := math.FMA(c, s.u, -hi); lo != 0 {
		p = append(p, lo)
	}
	return append(p, hi)
}

// value reads the sum back correctly rounded (to nearest, ties to
// even): the one rounding between the terms and a rule comparison.
func (s *exactSum) value() float64 {
	if s.count != 0 {
		return float64(s.count) * s.u
	}
	return round(s.partials())
}

// plus reads s + t back correctly rounded, the value s would read with
// t's terms added, and writes neither: the rules compare what a class
// would hold with the candidate without booking it. Two runs of one u
// are one multiply, inlined into the rules; otherwise merge.
func (s *exactSum) plus(t *exactSum) float64 {
	if s.u == t.u {
		return float64(s.count+t.count) * s.u
	}
	return s.merge(t)
}

// merge is plus for sums that are not runs of one u: both are written
// as expansions into arrays on the stack, the first grows by the
// second's partials, and the result is rounded once.
func (s *exactSum) merge(t *exactSum) float64 {
	var sb, tb [8]float64
	p := s.appendTerms(sb[:0])
	for _, x := range t.appendTerms(tb[:0]) {
		p = grow(p, x)
	}
	return round(p)
}

// round reads the expansion p back correctly rounded.
func round(p []float64) float64 {
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
