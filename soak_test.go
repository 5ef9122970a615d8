package lit_test

import (
	"os"
	"testing"

	lit "leaveintime"
)

// TestPaperLengthRuns validates the headline figures at the paper's own
// durations (minutes of simulated time; a couple of wall-clock
// minutes). It is gated behind LIT_PAPER_RUNS=1 so the default test
// suite stays fast:
//
//	LIT_PAPER_RUNS=1 go test -run TestPaperLengthRuns -v
func TestPaperLengthRuns(t *testing.T) {
	if os.Getenv("LIT_PAPER_RUNS") == "" {
		t.Skip("set LIT_PAPER_RUNS=1 for full paper-length validation")
	}
	// Figure 8 at 600 s: the paper's jitter numbers within 15%.
	res := lit.RunFig8Observed(600, 1, nil)
	if j := res.NoCtrl.Jitter; j < 0.85*0.0597 || j >= res.JitterBoundNoCtrl {
		t.Errorf("no-ctrl jitter %v out of band (paper 59.7 ms, bound 66.25 ms)", j)
	}
	if j := res.Ctrl.Jitter; j < 0.85*0.0124 || j >= res.JitterBoundCtrl {
		t.Errorf("ctrl jitter %v out of band (paper 12.4 ms, bound 13.25 ms)", j)
	}
	// Figure 7 at 300 s: utilization endpoints 98.2% and ~35%.
	f7 := lit.RunFig7(300, 1)
	if u := f7.Rows[0].Utilization; u < 0.97 || u > 0.99 {
		t.Errorf("utilization at aOFF=6.5ms: %v, want ~0.982", u)
	}
	if u := f7.Rows[len(f7.Rows)-1].Utilization; u < 0.33 || u > 0.37 {
		t.Errorf("utilization at aOFF=650ms: %v, want ~0.351", u)
	}
	for _, row := range f7.Rows {
		if row.MaxDelay >= row.DelayBound {
			t.Errorf("aOFF=%v: max delay %v >= bound %v", row.AOff, row.MaxDelay, row.DelayBound)
		}
	}
	// Figure 9 at 600 s: analytic bound crosses 1e-4 near the paper's
	// 26 ms and dominates the measurement.
	f9 := lit.RunFig9(600, 1)
	cross := 0.0
	for _, p := range f9.Analytic {
		if p.Y <= 1e-4 {
			cross = p.X
			break
		}
	}
	if cross < 24e-3 || cross > 28e-3 {
		t.Errorf("analytic 0.01%% percentile at %v, paper reads ~26 ms", cross)
	}
	if f9.Summary.MaxDelay >= cross+10e-3 {
		t.Errorf("measured max %v far beyond the bound percentile", f9.Summary.MaxDelay)
	}
}
