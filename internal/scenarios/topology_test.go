package scenarios

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"leaveintime/internal/config"
)

// TestMixBooksEveryLinkExactly: the MIX configuration must commit every
// link at exactly 48 x 32 kbit/s = 1536 kbit/s — the property that makes
// the paper's per-route session counts the authoritative ones.
func TestMixBooksEveryLinkExactly(t *testing.T) {
	perLink := make([]float64, NumNodes)
	total := 0
	for _, mr := range MixRoutes {
		total += mr.Count
		for n := mr.Entrance; n <= mr.Exit; n++ {
			perLink[n-1] += float64(mr.Count) * VoiceRate
		}
	}
	for n, rate := range perLink {
		if math.Abs(rate-T1Rate) > 1e-6 {
			t.Errorf("link %d booked at %v, want exactly %v", n+1, rate, T1Rate)
		}
	}
	if total != 116 {
		t.Errorf("MIX has %d sessions, want 116", total)
	}
	// Hop-count census: 10 five-hop, 12 four-hop, 16 three-hop,
	// 16 two-hop, 62 one-hop (the paper's "8 four-hop" is a typo; see
	// DESIGN.md).
	byHops := map[int]int{}
	for _, mr := range MixRoutes {
		byHops[mr.Exit-mr.Entrance+1] += mr.Count
	}
	want := map[int]int{5: 10, 4: 12, 3: 16, 2: 16, 1: 62}
	for h, n := range want {
		if byHops[h] != n {
			t.Errorf("%d-hop sessions: %d, want %d", h, byHops[h], n)
		}
	}
}

// TestMixAdmitted: every MIX session passes admission (exactly fills
// each link) and a 49th 32 kbit/s session on any link is refused.
func TestMixAdmitted(t *testing.T) {
	if _, err := mixDoc(0.65, 1, 1).Prepare(nil); err != nil {
		t.Fatalf("MIX refused: %v", err)
	}
	for n := 1; n <= NumNodes; n++ {
		sc := mixDoc(0.65, 1, 1)
		addSession(sc, n, n, VoiceRate, onOff(0.65))
		if _, err := sc.Prepare(nil); err == nil {
			t.Errorf("over-full link %d accepted a 49th session", n)
		}
	}
}

// TestUtilizationMatchesDutyCycle: the Figure 7 utilization sweep's
// endpoints are determined by the ON-OFF duty cycle a_ON/(a_ON+a_OFF):
// 98.2% at 6.5 ms and ~35.1% at 650 ms.
func TestUtilizationMatchesDutyCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, c := range []struct {
		aOff, want float64
	}{
		{0.0065, 0.982},
		{0.650, 0.351},
	} {
		row := runFig7Point(c.aOff, 30, 11, nil)
		if math.Abs(row.Utilization-c.want) > 0.03 {
			t.Errorf("aOFF=%v: utilization %v, want ~%v", c.aOff, row.Utilization, c.want)
		}
	}
}

func TestFig7FullSweepStructure(t *testing.T) {
	res := RunFig7(2, 3)
	if len(res.Rows) != len(AOffValues) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.AOff != AOffValues[i] {
			t.Errorf("row %d aOFF = %v", i, row.AOff)
		}
		if row.DelayBound <= 0 || row.JitterBound <= 0 {
			t.Errorf("row %d missing bounds", i)
		}
	}
	out := res.Format()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "650.0") {
		t.Errorf("Format output truncated:\n%s", out)
	}
}

func TestFig14FormatAndD(t *testing.T) {
	res := RunFig14to17(1, 3, 2)
	// The d values of the two classes must be the paper's 2.77 ms and
	// 18.77 ms (text: "18.8 ms").
	if d := res.Sessions[0].DPerNode; math.Abs(d-2.77e-3) > 1e-9 {
		t.Errorf("class-1 d = %v", d)
	}
	if d := res.Sessions[2].DPerNode; math.Abs(d-18.77e-3) > 1e-6 {
		t.Errorf("class-2 d = %v", d)
	}
	if !strings.Contains(res.Format(), "class 2") {
		t.Error("Format output")
	}
}

// TestEstablishValidatesRoute: a route whose exit precedes its entrance
// is empty, and the document refuses it.
func TestEstablishValidatesRoute(t *testing.T) {
	sc := fig6(1, 1)
	addSession(sc, 3, 2, VoiceRate, onOff(0.65))
	if err := sc.Validate(); err == nil {
		t.Error("bad route accepted")
	}
}

// TestRouteBounds: the returned Route mirrors the session's assignments.
func TestRouteBounds(t *testing.T) {
	sc := fig6(1, 1)
	addSession(sc, 1, NumNodes, VoiceRate, onOff(0.65))
	rt := prepare(sc, nil).Conns()[0].Bounds.Route
	if len(rt.Hops) != 5 {
		t.Fatalf("hops = %d", len(rt.Hops))
	}
	if math.Abs(rt.Hops[0].DMax-CellBits/VoiceRate) > 1e-12 {
		t.Errorf("DMax = %v", rt.Hops[0].DMax)
	}
	if math.Abs(rt.Alpha) > 1e-12 {
		t.Errorf("Alpha = %v for d = L/r", rt.Alpha)
	}
}

// TestFigureDocumentsParse: every figure's network is a document litrun
// could run. Each one, written as JSON, passes Parse's checks and every
// session passes admission, so the runners may skip the checks.
func TestFigureDocumentsParse(t *testing.T) {
	docs := map[string]*config.Scenario{
		"fig7":     mixDoc(AOffValues[0], 300, 1),
		"fig8":     crossDoc(600, 1),
		"fig9":     distDoc(Fig9SessionMean, Fig9SessionRate, crossPoisson1136, 600, 1),
		"fig10":    distDoc(Fig10SessionMean, Fig10SessionRate, crossPoisson1472, 600, 1),
		"fig11":    distDoc(Fig10SessionMean, Fig10SessionRate, crossDeterministic47, 600, 1),
		"fig14":    fig14Doc(AOffValues[0], 300, 1, 2),
		"fig14ac1": fig14Doc(AOffValues[0], 300, 1, 1),
	}
	for name, sc := range docs {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := config.Parse(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := parsed.Prepare(nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
