package scenarios

import (
	"strings"
	"testing"

	"leaveintime/internal/network"
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

// TestEDDNoteFollowsVerdict: the Delay-EDD rows state what the
// Ferrari-Verma test found, not a fixed string. The comparison's cross
// budget (a quarter of the Poisson mean spacing) is refused and gets no
// bound; the same sessions declaring the mean spacing itself are
// schedulable and get the local delays plus propagation summed over
// the five hops.
func TestEDDNoteFollowsVerdict(t *testing.T) {
	tag := network.SessionPort{LocalDelay: CellBits / VoiceRate, XMin: OnSpacing}
	cross := network.SessionPort{LocalDelay: 2.5e-3, XMin: Fig8CrossMean / 4}
	if b, note := eddBound(tag, cross); b != 0 || note != "schedulability test fails" {
		t.Errorf("refused budgets: bound %v, note %q", b, note)
	}
	cross.XMin = Fig8CrossMean
	want := float64(NumNodes) * (tag.LocalDelay + PropDelay)
	if b, note := eddBound(tag, cross); b != want || note != "sum of local delays" {
		t.Errorf("schedulable budgets: bound %v, note %q, want %v", b, note, want)
	}
	for _, row := range RunComparison(2, 1, 0.65).Rows {
		if strings.HasSuffix(row.Name, "-EDD") && (row.Bound != 0 || row.BoundNote != "schedulability test fails") {
			t.Errorf("%s: bound %v, note %q", row.Name, row.Bound, row.BoundNote)
		}
	}
}
