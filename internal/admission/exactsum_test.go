package admission

import (
	"math"
	"math/big"
	"testing"

	"leaveintime/internal/rng"
)

// sumPalette is what a script adds: a rate and an L_MAX/C as a class
// books them, terms whose multiples need two floats (0.1), the ends of
// the run's range and a step outside them at both ends, a subnormal,
// and spreads of binades the expansion needs several partials for.
var sumPalette = []float64{
	32e3, 424 / 155.52e6, 0.1, 1.0 / 3, 1,
	runMin, runMax, nudge(runMin, -1), nudge(runMax, 1),
	math.Ldexp(1, -1000), math.Ldexp(1.5, 1000), 5e-324,
	math.Ldexp(1, 60), math.Ldexp(1, -60), 3, 7e-17,
}

// sumScript plays a script of byte operations on one exactSum: the top
// two bits pick adding a palette value, reading the sum plus one to
// four copies of a palette value without adding them (plus), adding a
// value's negation, or taking back a live term with sub (one that was
// never added, when nothing is live), and the rest pick the value, the
// copies or the term. After every operation the sum must hold the live
// terms' total exactly — as its run, count·u, or as its partials — and
// read it back correctly rounded; a read must round the live terms and
// the copies once and leave the sum as it was; once everything is taken
// back the sum must be empty.
func sumScript(t *testing.T, script []byte) {
	var s exactSum
	var live []float64
	for op, b := range script {
		x := sumPalette[int(b&0x3f)%len(sumPalette)]
		switch b >> 6 {
		case 0:
			live = append(live, x)
			s.add(x)
		case 1:
			checkPlus(t, op, &s, live, x, 1+int(b>>4)&3)
		case 2:
			live = append(live, -x)
			s.add(-x)
		default:
			if len(live) == 0 {
				live = append(live, -x) // taken back before it came
				s.sub(x)
				break
			}
			i := int(b&0x3f) % len(live)
			s.sub(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		checkSum(t, op, &s, live)
	}
	for i := len(live) - 1; i >= 0; i-- {
		s.sub(live[i])
	}
	if s.n != 0 || s.count != 0 || math.Float64bits(s.value()) != 0 {
		t.Fatalf("%d partials, count %d (%g) left after taking every term back", s.n, s.count, s.value())
	}
}

// checkPlus reads s plus a sum of k copies of x, built as the rules'
// candidate is (one, then add), and checks the read against the live
// terms and the copies rounded once, and that s holds to the bit what
// it held before. plus trusts that a sum whose u is a number holds no
// partials; that is checked of both sums first.
func checkPlus(t *testing.T, op int, s *exactSum, live []float64, x float64, k int) {
	t.Helper()
	var other exactSum
	other.one(x)
	all := append(append([]float64(nil), live...), x)
	for i := 1; i < k; i++ {
		other.add(x)
		all = append(all, x)
	}
	for _, sum := range []*exactSum{s, &other} {
		if !math.IsNaN(sum.u) && sum.n != 0 {
			t.Fatalf("op %d: u = %g beside %d partials", op, sum.u, sum.n)
		}
	}
	before := *s
	parts := append([]float64(nil), s.partials()...)
	if got, want := s.plus(&other), bigSum(all...); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("op %d: %d terms plus %d × %g read %b, exact sum rounds to %b", op, len(live), k, x, got, want)
	}
	same := math.Float64bits(s.u) == math.Float64bits(before.u) && s.count == before.count && s.n == before.n
	for i, p := range s.partials() {
		same = same && math.Float64bits(p) == math.Float64bits(parts[i])
	}
	if !same {
		t.Fatalf("op %d: plus wrote the sum: run (%g, %d), partials %v; before (%g, %d), %v",
			op, s.u, s.count, s.partials(), before.u, before.count, parts)
	}
}

// checkSum compares what the sum holds, exactly, with the terms' exact
// total, and its read-back with that total rounded once.
func checkSum(t *testing.T, op int, s *exactSum, live []float64) {
	t.Helper()
	want := new(big.Float).SetPrec(2200)
	for _, x := range live {
		want.Add(want, new(big.Float).SetFloat64(x))
	}
	held := new(big.Float).SetPrec(2200)
	if s.count != 0 {
		if s.n != 0 {
			t.Fatalf("op %d: a run of %d with %d partials beside it", op, s.count, s.n)
		}
		held.Mul(new(big.Float).SetInt64(int64(s.count)), new(big.Float).SetFloat64(s.u))
	}
	for _, p := range s.partials() {
		held.Add(held, new(big.Float).SetFloat64(p))
	}
	if held.Cmp(want) != 0 {
		t.Fatalf("op %d: the sum holds %s, its %d terms add up to %s", op, held.Text('g', 40), len(live), want.Text('g', 40))
	}
	if got, want := s.value(), bigSum(live...); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("op %d: %d terms read %b, exact sum rounds to %b", op, len(live), got, want)
	}
}

// TestExactSumScripts runs the fuzz target's property over random
// scripts on every go test, and scripts that keep one run going,
// leave it and come back to it.
func TestExactSumScripts(t *testing.T) {
	r := rng.New(44)
	for n := 0; n < 300; n++ {
		script := make([]byte, 1+r.Intn(200))
		for i := range script {
			script[i] = byte(r.Uint64())
		}
		sumScript(t, script)
	}
	for _, script := range exactSumCorpus {
		sumScript(t, script)
	}
}

// exactSumCorpus: a run of 0.1 read at every count, left for 1/3 and
// taken back into the expansion; a run emptied and started again with
// the opposite sign; a run of runMax left for a term outside the range;
// a run at runMin left for a subnormal; a run of u that takes −u in
// (a count down) and then takes that −u back (a count up); a run of
// 32e3 read with four more of itself, then with 0.1 and with four of
// 1/3 (foreign terms); a run of runMax read with one and with four
// terms just above runMax; a run of 1 read with two subnormals; a run
// of five 0.1 read with a sixth, which 5·0.1 + 0.1 rounds apart from
// 6·0.1.
var exactSumCorpus = [][]byte{
	{2, 2, 2, 2, 2, 3, 0xc0, 2, 2, 0xc0},
	{0, 0, 0xc0, 0xc0, 0x80, 0x80, 0, 0xc0, 0xc1},
	{6, 6, 6, 8, 0xc3, 6},
	{5, 5, 11, 0x85, 0xc0},
	{0, 0, 0x80, 0xc2, 0xc0},
	{0, 0, 0, 0x70, 0x42, 0x73},
	{6, 6, 0x48, 0x78},
	{4, 4, 0x5b},
	{2, 2, 2, 2, 2, 0x42},
}

func FuzzExactSum(f *testing.F) {
	for _, script := range exactSumCorpus {
		f.Add(script)
	}
	f.Fuzz(sumScript)
}
