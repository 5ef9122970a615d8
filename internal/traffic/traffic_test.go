package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"leaveintime/internal/analytic"
	"leaveintime/internal/rng"
)

// conforms reports whether a packet of the given length fits tb at time
// t and, if it does, debits the bucket.
func conforms(tb *analytic.TokenBucket, t, length float64) bool {
	if tb.ConformanceDelay(t, length) > 0 {
		return false
	}
	tb.Take(t, length)
	return true
}

func TestDeterministic(t *testing.T) {
	d := &Deterministic{Interval: 0.01325, Length: 424}
	for i := 0; i < 10; i++ {
		gap, l := d.Next()
		if gap != 0.01325 || l != 424 {
			t.Fatalf("Next = (%v, %v)", gap, l)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	p := &Poisson{Mean: 0.01, Length: 424, Rng: rng.New(1)}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		gap, l := p.Next()
		if l != 424 || gap < 0 {
			t.Fatalf("Next = (%v, %v)", gap, l)
		}
		sum += gap
	}
	if got := sum / n; math.Abs(got-0.01)/0.01 > 0.02 {
		t.Errorf("mean gap %v, want ~0.01", got)
	}
}

func TestOnOffDegeneratesToDeterministic(t *testing.T) {
	// MeanOff = 0 must reproduce a fixed packet rate source exactly,
	// as the paper notes (a_OFF = 0).
	o := &OnOff{T: 0.01325, Length: 424, MeanOn: 0.352, MeanOff: 0, Rng: rng.New(2)}
	for i := 0; i < 1000; i++ {
		gap, l := o.Next()
		if gap != 0.01325 || l != 424 {
			t.Fatalf("packet %d: (%v, %v), want exactly (0.01325, 424)", i, gap, l)
		}
	}
}

func TestOnOffMeanRate(t *testing.T) {
	// Standard voice: aON=352ms, aOFF=650ms, 32 kbit/s in ON.
	// The long-run rate is (L/T) a_ON / (a_ON + a_OFF).
	o := &OnOff{T: 0.01325, Length: 424, MeanOn: 0.352, MeanOff: 0.650, Rng: rng.New(3)}
	want := 424 / 0.01325 * 0.352 / 1.002
	var clock, bits float64
	for i := 0; i < 500000; i++ {
		gap, l := o.Next()
		clock += gap
		bits += l
	}
	got := bits / clock
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("empirical rate %v, want ~%v", got, want)
	}
}

// TestOnOffNeverExceedsReservedRate: within an ON burst the spacing is
// exactly T, so the source conforms to a one-packet token bucket at
// rate L/T. This is what makes D_ref_max = L/r hold in the paper's
// experiments.
func TestOnOffConformsToOnePacketBucket(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		o := &OnOff{T: 0.01325, Length: 424, MeanOn: 0.352, MeanOff: 0.1, Rng: r}
		tb := analytic.NewTokenBucket(424/0.01325, 424)
		clock := 0.0
		for i := 0; i < 5000; i++ {
			gap, l := o.Next()
			clock += gap
			if !conforms(tb, clock, l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGreedy(t *testing.T) {
	g := &Greedy{Rate: 1000, Length: 100}
	gap, l := g.Next()
	if gap != 0.1 || l != 100 {
		t.Fatalf("Next = (%v, %v)", gap, l)
	}
}

func TestTrace(t *testing.T) {
	tr := &Trace{Gaps: []float64{1, 2}, Lengths: []float64{10, 20}}
	g, l := tr.Next()
	if g != 1 || l != 10 {
		t.Fatalf("first = (%v, %v)", g, l)
	}
	g, l = tr.Next()
	if g != 2 || l != 20 {
		t.Fatalf("second = (%v, %v)", g, l)
	}
	g, _ = tr.Next()
	if g < 1e17 {
		t.Fatalf("exhausted trace gap = %v, want effectively infinite", g)
	}
}

// TestShapedConforms: the output of a Shaped source must conform to its
// bucket when re-checked independently, for any inner source.
func TestShapedConforms(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		inner := &Poisson{Mean: 0.001, Length: 424, Rng: r} // heavily bursty vs the bucket
		s := NewShaped(inner, 32e3, 3*424)
		checker := analytic.NewTokenBucket(32e3, 3*424)
		clock := 0.0
		for i := 0; i < 2000; i++ {
			gap, l := s.Next()
			if gap < 0 {
				return false
			}
			clock += gap
			if !conforms(checker, clock, l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestShapedPreservesConformingStream: a stream already conforming to
// the bucket passes through with unchanged timing.
func TestShapedPreservesConformingStream(t *testing.T) {
	inner := &Deterministic{Interval: 0.01325, Length: 424}
	s := NewShaped(inner, 32e3, 424)
	for i := 0; i < 100; i++ {
		gap, l := s.Next()
		if math.Abs(gap-0.01325) > 1e-12 || l != 424 {
			t.Fatalf("packet %d: (%v, %v)", i, gap, l)
		}
	}
}

func TestVariableLength(t *testing.T) {
	v := &VariableLength{
		Src: &Deterministic{Interval: 1, Length: 999},
		Fn:  func(i int64) float64 { return float64(100 * i) },
	}
	for i := int64(1); i <= 5; i++ {
		gap, l := v.Next()
		if gap != 1 || l != float64(100*i) {
			t.Fatalf("packet %d: (%v, %v)", i, gap, l)
		}
	}
}

// TestOnOffBurstLengthDistribution: the number of packets per burst
// should be geometric with mean aON/T.
func TestOnOffBurstLengths(t *testing.T) {
	o := &OnOff{T: 1, Length: 1, MeanOn: 10, MeanOff: 100, Rng: rng.New(9)}
	var bursts, packets int
	inBurst := 0
	for i := 0; i < 300000; i++ {
		gap, _ := o.Next()
		if gap > 1 { // inter-burst gap
			if inBurst > 0 {
				bursts++
				packets += inBurst
			}
			inBurst = 1
		} else {
			inBurst++
		}
	}
	mean := float64(packets) / float64(bursts)
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("mean burst length %v, want ~10", mean)
	}
}

func TestVideoSource(t *testing.T) {
	v := &Video{FrameRate: 25, CellBits: 424, MeanFrameBits: 16e3, Rng: rng.New(4)}
	var clock, bits float64
	frames := 0
	for i := 0; i < 200000; i++ {
		gap, l := v.Next()
		if l != 424 {
			t.Fatalf("cell size %v", l)
		}
		if gap > 0 {
			frames++
			if math.Abs(gap-0.04) > 1e-12 {
				t.Fatalf("frame period %v", gap)
			}
		}
		clock += gap
		bits += l
	}
	got := bits / clock
	want := v.MeanRate()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical rate %v, MeanRate %v", got, want)
	}
	if frames < 1000 {
		t.Errorf("only %d frames", frames)
	}
}

func TestVideoIFramesLarger(t *testing.T) {
	v := &Video{FrameRate: 25, CellBits: 424, MeanFrameBits: 16e3} // no jitter
	sizes := map[int64]int64{}
	frame := int64(-1)
	for i := 0; i < 5000; i++ {
		gap, _ := v.Next()
		if gap > 0 {
			frame++
		}
		sizes[frame]++
	}
	if sizes[0] <= sizes[2]*2 {
		t.Errorf("I frame %d cells not much larger than P frame %d", sizes[0], sizes[2])
	}
	if sizes[1] >= sizes[2] {
		t.Errorf("B frame %d cells not smaller than P frame %d", sizes[1], sizes[2])
	}
}
