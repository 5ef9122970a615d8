package admission

import "math"

// exactSum is a running sum of float64 terms held without rounding
// error: a Shewchuk expansion, as Python's math.fsum keeps one. The
// partials do not overlap, ascend in magnitude and add up, as real
// numbers, to everything added so far, so the sum depends on the set of
// terms and not on the order they came in, and adding -x takes back
// exactly what adding x put in. Terms must be finite.
type exactSum struct {
	n int
	// head backs the partials until a fifth is needed. A sum of reserved
	// rates or of L_MAX/C values spans few binades and rarely needs more
	// than two; keeping them in the controller's own allocation is what
	// keeps a small set-up as cheap as appending to a slice was.
	head  [4]float64
	spill []float64
}

func (s *exactSum) partials() []float64 {
	if s.spill != nil {
		return s.spill[:s.n]
	}
	return s.head[:s.n]
}

// add folds x into the sum: one error-free two-sum per partial.
func (s *exactSum) add(x float64) {
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

// value reads the sum back correctly rounded (to nearest, ties to
// even): the one rounding between the terms and a rule comparison.
func (s *exactSum) value() float64 {
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
