package scenarios

import (
	"strings"
	"testing"
)

func TestRunComparison(t *testing.T) {
	res := RunComparison(20, 1, 0.65)
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]ComparisonRow{}
	for _, row := range res.Rows {
		if row.Packets == 0 {
			t.Errorf("%s delivered nothing", row.Name)
		}
		byName[row.Name] = row
	}
	// LiT and VirtualClock coincide exactly (special case).
	lit, vc := byName["Leave-in-Time"], byName["VirtualClock"]
	if lit.MaxDelay != vc.MaxDelay || lit.Jitter != vc.Jitter {
		t.Errorf("LiT %v/%v != VirtualClock %v/%v",
			lit.MaxDelay, lit.Jitter, vc.MaxDelay, vc.Jitter)
	}
	// Every discipline with a bound must respect it on this run.
	for _, row := range res.Rows {
		if row.Bound > 0 && row.MaxDelay >= row.Bound {
			t.Errorf("%s: max %v >= bound %v (%s)", row.Name, row.MaxDelay, row.Bound, row.BoundNote)
		}
	}
	// Jitter control must cut the tagged session's jitter sharply.
	if jc := byName["Leave-in-Time+jitterctl"]; jc.Jitter >= lit.Jitter/2 {
		t.Errorf("jitter control ineffective: %v vs %v", jc.Jitter, lit.Jitter)
	}
	if !strings.Contains(res.Format(), "bound origin") {
		t.Error("Format output")
	}
}
