package scenarios

import (
	"strings"
	"testing"

	"leaveintime/internal/network"
	"leaveintime/internal/traffic"
)

func TestRunPerHop(t *testing.T) {
	res := RunPerHop(10, 2)
	if len(res.NoCtrl) != 5 || len(res.Ctrl) != 5 {
		t.Fatalf("hops = %d / %d, want 5 / 5", len(res.NoCtrl), len(res.Ctrl))
	}
	// With jitter control the regulators convert queueing variance into
	// holding: the mean arrive->start time at downstream hops is much
	// larger, while the spread (max - mean) is much smaller.
	var noCtrlSpread, ctrlSpread, noCtrlMean, ctrlMean float64
	for h := 1; h < 5; h++ {
		noCtrlSpread += res.NoCtrl[h].Queue.Max() - res.NoCtrl[h].Queue.Mean()
		ctrlSpread += res.Ctrl[h].Queue.Max() - res.Ctrl[h].Queue.Mean()
		noCtrlMean += res.NoCtrl[h].Queue.Mean()
		ctrlMean += res.Ctrl[h].Queue.Mean()
	}
	if ctrlMean <= noCtrlMean {
		t.Errorf("regulator holding should raise downstream mean: %v vs %v", ctrlMean, noCtrlMean)
	}
	out := res.Format()
	if !strings.Contains(out, "with jitter control") || !strings.Contains(out, "node5") {
		t.Errorf("Format output:\n%s", out)
	}
}

// TestBranchingRoutes: the port substrate supports non-tandem
// topologies — two sessions entering the same port but departing to
// different next hops.
func TestBranchingRoutes(t *testing.T) {
	// A document route of link-less servers may skip a server, but
	// wire the branch directly on Leave-in-Time ports to see the port
	// substrate alone: both sessions share port 1, then A continues to
	// port 2 and B jumps to port 3.
	net, ports := rawTandem(t1Disc("lit"))
	pA, pB, pC := ports[0], ports[1], ports[2]
	src := func() *traffic.Deterministic {
		return &traffic.Deterministic{Interval: DetInterval, Length: CellBits}
	}
	sA := net.AddSession(101, VoiceRate, false,
		[]*network.Port{pA, pB}, make([]network.SessionPort, 2), src())
	sB := net.AddSession(102, VoiceRate, false,
		[]*network.Port{pA, pC}, make([]network.SessionPort, 2), src())
	sA.Start(0, 1)
	sB.Start(0.001, 1)
	net.Sim.Run(5)
	if sA.Delivered == 0 || sB.Delivered == 0 {
		t.Fatalf("branch delivery: %d / %d", sA.Delivered, sB.Delivered)
	}
	if sA.Delivered != sA.Emitted || sB.Delivered != sB.Emitted {
		t.Errorf("losses on branch: A %d/%d, B %d/%d",
			sA.Delivered, sA.Emitted, sB.Delivered, sB.Emitted)
	}
}
