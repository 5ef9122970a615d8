package scenarios

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDistResultFormatAndPlot(t *testing.T) {
	res := RunFig10(2, 3)
	out := res.Format()
	if !strings.Contains(out, "rho=0.33") {
		t.Errorf("Format output:\n%s", out)
	}
	plotted := res.Plot()
	if !strings.Contains(plotted, "measured") || !strings.Contains(plotted, "analytic") {
		t.Errorf("Plot output:\n%s", plotted)
	}
}

func TestFig11Runs(t *testing.T) {
	res := RunFig11(2, 3)
	if res.Summary.Packets == 0 {
		t.Fatal("no packets")
	}
	if res.Rho != Fig10SessionMean*0+0.33125 {
		// rho = service/mean = (424/32000)/0.04 = 0.33125
		t.Errorf("rho = %v", res.Rho)
	}
	// The measured tail is monotone nonincreasing.
	prev := 1.0
	for _, d := range []float64{0, 0.01, 0.05, 0.2} {
		v := tailAt(res, d)
		if v > prev+1e-12 {
			t.Errorf("tail not monotone at %v: %v > %v", d, v, prev)
		}
		prev = v
	}
}

func TestFig8PlotAndJSON(t *testing.T) {
	res := RunFig8Observed(2, 3, nil)
	plotted := res.Plot()
	if !strings.Contains(plotted, "jitter control") {
		t.Errorf("Plot output:\n%s", plotted)
	}
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"delay_bound_s", "hist_no_control", "buffer_bounds_packets"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
}

func TestDistJSON(t *testing.T) {
	res := RunFig9(1, 3)
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["rho"].(float64) < 0.6 {
		t.Errorf("rho in JSON = %v", decoded["rho"])
	}
}

func TestJSONFallback(t *testing.T) {
	// Unknown result types marshal as-is.
	data, err := JSON(map[string]int{"x": 1})
	if err != nil || !strings.Contains(string(data), "\"x\"") {
		t.Errorf("fallback JSON: %s, %v", data, err)
	}
}

func TestSection4Formats(t *testing.T) {
	c := RunSection4StopAndGo(0.01, 1536e3, 5)
	if !strings.Contains(c.Format(), "per-link increase") {
		t.Error("Section4StopAndGo Format")
	}
	pg := RunSection4PGPS(32e3, 424, 424, 1536e3, 1e-3, 5)
	if pg.LiT <= 0 || pg.PGPS <= 0 {
		t.Error("PGPS comparison values")
	}
}
