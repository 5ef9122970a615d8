package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTracker(t *testing.T) {
	var tr Tracker
	if tr.Count() != 0 || tr.Mean() != 0 || tr.Jitter() != 0 {
		t.Fatal("zero tracker not neutral")
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		tr.Add(v)
	}
	if tr.Count() != 5 {
		t.Errorf("Count = %d", tr.Count())
	}
	if tr.Min() != 1 || tr.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", tr.Min(), tr.Max())
	}
	if got := tr.Mean(); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("Mean = %v, want 2.8", got)
	}
	if tr.Jitter() != 4 {
		t.Errorf("Jitter = %v, want 4", tr.Jitter())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 10)
	for _, v := range []float64{0.5, 1.5, 1.7, 9.9, 25} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.BinCount(0) != 1 || h.BinCount(1) != 2 || h.BinCount(9) != 1 {
		t.Errorf("bins wrong: %v %v %v", h.BinCount(0), h.BinCount(1), h.BinCount(9))
	}
	if h.overflow != 1 {
		t.Errorf("overflow = %d", h.overflow)
	}
	if h.Tracker.Max() != 25 {
		t.Errorf("exact max lost: %v", h.Tracker.Max())
	}
	if h.Add(-0.1); h.BinCount(0) != 2 {
		t.Error("negative value not clamped into bin 0")
	}
}

func TestHistogramCCDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(0.5, 64)
		for _, r := range raw {
			h.Add(float64(r) / 1000)
		}
		pts := h.CCDF()
		prev := 1.0
		for _, p := range pts {
			if p.P > prev+1e-12 || p.P < 0 || p.P > 1 {
				return false
			}
			prev = p.P
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramTailProb(t *testing.T) {
	h := NewHistogram(1, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i % 10))
	}
	if p := h.TailProb(4.5); math.Abs(p-0.6) > 1e-9 {
		// bins 4..9 contain 60 of 100 values; TailProb rounds the
		// threshold down to the bin edge.
		t.Errorf("TailProb(4.5) = %v, want 0.6", p)
	}
	if p := h.TailProb(100); p != 0 {
		t.Errorf("TailProb beyond range = %v", p)
	}
}

func TestDiscrete(t *testing.T) {
	var d Discrete
	for _, k := range []int{0, 1, 1, 2, 5} {
		d.Add(k)
	}
	if d.n != 5 || d.Max() != 5 {
		t.Errorf("count/Max = %d/%d", d.n, d.Max())
	}
	if p := d.CDF(1) - d.CDF(0); math.Abs(p-0.4) > 1e-12 {
		t.Errorf("P(1) = %v", p)
	}
	if c := d.CDF(2); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("CDF(2) = %v", c)
	}
}

func TestDiscretePanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var d Discrete
	d.Add(-1)
}

func TestUtilization(t *testing.T) {
	var u Utilization
	u.Start(0)
	u.SetBusy(1, true)
	u.SetBusy(3, false)
	u.SetBusy(4, true)
	u.SetBusy(5, false)
	if got := u.Value(10); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("utilization = %v, want 0.3", got)
	}
	// Still busy at the end.
	u.SetBusy(10, true)
	if got := u.Value(11); math.Abs(got-4.0/11) > 1e-12 {
		t.Errorf("utilization with open busy period = %v", got)
	}
	// Redundant transition is a no-op.
	u.SetBusy(11, true)
	if got := u.Value(12); math.Abs(got-5.0/12) > 1e-12 {
		t.Errorf("after redundant SetBusy: %v", got)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0, 10) did not panic")
		}
	}()
	NewHistogram(0, 10)
}
