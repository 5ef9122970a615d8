package scenarios

import (
	"math"
	"testing"
)

// tailAt returns the measured P(delay > d) by scanning r's CCDF.
func tailAt(r *DistResult, d float64) float64 {
	p := 1.0
	for _, pt := range r.Measured {
		if pt.X > d {
			return p
		}
		p = pt.P
	}
	return p
}

// TestFig8Bounds checks the closed-form bounds the Figure 8 experiment
// must produce: 66.25 ms jitter bound without control, 13.25 ms with,
// and the 72.63 ms end-to-end delay bound.
func TestFig8Bounds(t *testing.T) {
	res := RunFig8Observed(5, 1, nil) // short run; bounds are run-independent
	if got := res.JitterBoundNoCtrl; math.Abs(got-0.06625) > 1e-9 {
		t.Errorf("jitter bound without control = %v, want 66.25ms", got)
	}
	if got := res.JitterBoundCtrl; math.Abs(got-0.01325) > 1e-9 {
		t.Errorf("jitter bound with control = %v, want 13.25ms", got)
	}
	want := 0.01325 + 5*(424.0/T1Rate+1e-3) + 4*0.01325
	if got := res.DelayBound; math.Abs(got-want) > 1e-9 {
		t.Errorf("delay bound = %v, want %v", got, want)
	}
	if res.NoCtrl.Packets == 0 || res.Ctrl.Packets == 0 {
		t.Fatalf("no packets delivered: %+v %+v", res.NoCtrl, res.Ctrl)
	}
	if res.NoCtrl.MaxDelay >= res.DelayBound {
		t.Errorf("no-ctrl max delay %v exceeds bound %v", res.NoCtrl.MaxDelay, res.DelayBound)
	}
	if res.Ctrl.MaxDelay >= res.DelayBound {
		t.Errorf("ctrl max delay %v exceeds bound %v", res.Ctrl.MaxDelay, res.DelayBound)
	}
	if res.NoCtrl.Jitter >= res.JitterBoundNoCtrl {
		t.Errorf("no-ctrl jitter %v exceeds bound %v", res.NoCtrl.Jitter, res.JitterBoundNoCtrl)
	}
	if res.Ctrl.Jitter >= res.JitterBoundCtrl {
		t.Errorf("ctrl jitter %v exceeds bound %v", res.Ctrl.Jitter, res.JitterBoundCtrl)
	}
	t.Logf("noCtrl: %+v", res.NoCtrl)
	t.Logf("ctrl:   %+v", res.Ctrl)
}

// TestFig9MeasuredUnderAnalyticBound: at every threshold, the measured
// network tail must sit below the ineq. 16 analytic curve.
func TestFig9MeasuredUnderAnalyticBound(t *testing.T) {
	r := RunFig9(5, 2)
	if r.Summary.Packets == 0 {
		t.Fatal("no packets")
	}
	for _, d := range []float64{0.012, 0.016, 0.02, 0.025, 0.03} {
		meas := tailAt(r, d)
		var ana float64
		for _, p := range r.Analytic {
			if p.X >= d {
				ana = p.Y
				break
			}
		}
		if ana > 0 && meas > ana+1e-9 {
			t.Errorf("measured tail %v above analytic bound %v at %v", meas, ana, d)
		}
	}
}
