package scenarios

import (
	"math"
	"strings"
	"testing"

	"leaveintime/internal/analytic"
)

func TestCallBlockingMatchesErlangB(t *testing.T) {
	res := RunCallBlocking(400, 9, 40, 2)
	if res.Arrivals < 5000 {
		t.Fatalf("only %d arrivals", res.Arrivals)
	}
	want := analytic.ErlangB(48, 40)
	if math.Abs(res.Measured-want) > 0.30*want+0.005 {
		t.Errorf("blocking %.4f, Erlang B %.4f", res.Measured, want)
	}
	if res.MaxDelay >= res.DelayBound {
		t.Errorf("carried call broke its delay bound: %v >= %v", res.MaxDelay, res.DelayBound)
	}
	if res.Removed == 0 {
		t.Error("no teardowns completed")
	}
	if !strings.Contains(res.Format(), "Erlang B") {
		t.Error("Format output")
	}
}

func TestCallBlockingLowLoad(t *testing.T) {
	// At 10 Erlangs offered to 48 circuits blocking is ~1e-15: nothing
	// should be blocked and all state should tear down cleanly.
	res := RunCallBlocking(100, 3, 10, 1)
	if res.Blocked != 0 {
		t.Errorf("blocked %d calls at negligible load", res.Blocked)
	}
	if res.Removed < res.Arrivals-res.Blocked-200 {
		t.Errorf("teardowns lagging: %d removed of %d carried", res.Removed, res.Arrivals)
	}
}

func TestErlangBValues(t *testing.T) {
	// Classical table values.
	cases := []struct {
		n    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{10, 5, 0.018385},
		{48, 40, 0.029877},
	}
	for _, c := range cases {
		if got := analytic.ErlangB(c.n, c.a); math.Abs(got-c.want) > 2e-4 {
			t.Errorf("ErlangB(%d, %v) = %v, want %v", c.n, c.a, got, c.want)
		}
	}
	if analytic.ErlangB(0, 2) != 1 {
		t.Error("zero circuits must block everything")
	}
	if analytic.ErlangB(5, 0) != 0 {
		t.Error("zero load must block nothing")
	}
}
