package scenarios

import (
	"math"
	"testing"

	"leaveintime/internal/trace"
)

// TestRegulatorReconstructsPattern verifies the eq. 9 mechanism at the
// packet level: for a jitter-controlled session with fixed-length
// packets (d = d_max), the eligibility time of packet i at node n+1
// must equal its transmission deadline at node n plus the constant
// Gamma_n + L_MAX/C_n — i.e. the regulator fully removes the jitter
// node n introduced, reconstructing the deadline pattern one constant
// later. This is the theorem behind ineq. 17's hop-independence.
func TestRegulatorReconstructsPattern(t *testing.T) {
	sc := fig6(10, 21)
	addSession(sc, 1, NumNodes, VoiceRate, onOff(0.1)).JitterControl = true
	for _, cr := range CrossRoutes {
		addSession(sc, cr.Entrance, cr.Exit, Fig8CrossRate, poisson(Fig8CrossMean))
	}
	run := prepare(sc, nil)
	rec := &trace.Recorder{}
	run.System().Net.Tracer = rec
	run.Start()
	run.Sim().Run(12) // past the sources' stop, to drain
	sess := run.Conns()[0].Sess

	if sess.Delivered < 100 {
		t.Fatalf("only %d packets", sess.Delivered)
	}
	// Collect per-packet (hop -> eligible, deadline) from the
	// TransmitStart events.
	type stamps struct{ eligible, deadline [5]float64 }
	perPkt := map[int64]*stamps{}
	for _, e := range rec.Events {
		if e.Session != sess.ID || e.Kind != trace.TransmitStart {
			continue
		}
		st := perPkt[e.Seq]
		if st == nil {
			st = &stamps{}
			perPkt[e.Seq] = st
		}
		st.eligible[e.Hop] = e.Eligible
		st.deadline[e.Hop] = e.Deadline
	}
	wantShift := PropDelay + CellBits/T1Rate
	checked := 0
	for seq, st := range perPkt {
		for hop := 0; hop < 4; hop++ {
			if st.deadline[hop] == 0 || st.eligible[hop+1] == 0 {
				continue // packet not observed at both hops (run cutoff)
			}
			got := st.eligible[hop+1] - st.deadline[hop]
			if math.Abs(got-wantShift) > 1e-9 {
				t.Fatalf("packet %d hop %d->%d: E - F = %v, want constant %v",
					seq, hop+1, hop+2, got, wantShift)
			}
			checked++
		}
	}
	if checked < 300 {
		t.Fatalf("only %d hop transitions checked", checked)
	}
}
