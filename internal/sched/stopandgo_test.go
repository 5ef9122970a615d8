package sched

import "testing"

// TestStopAndGoFrameBoundary pins the framing rule: a packet arriving
// during frame k becomes eligible exactly at the start of frame k+1,
// must leave within that frame, and an arrival exactly on a boundary
// belongs to the frame it starts.
func TestStopAndGoFrameBoundary(t *testing.T) {
	g := NewStopAndGo(1.0)

	g.Enqueue(pkt(1, 1, 10), 0.5)
	if g.ready.Len() != 0 {
		t.Fatal("mid-frame arrival immediately eligible")
	}
	if _, ok := g.Dequeue(0.9); ok {
		t.Fatal("dequeued before the frame boundary")
	}
	if e, ok := g.NextEligible(0.9); !ok || e != 1.0 {
		t.Fatalf("NextEligible(0.9) = %v, %v; want 1.0", e, ok)
	}
	p, ok := g.Dequeue(1.0)
	if !ok || p.Seq != 1 {
		t.Fatalf("boundary dequeue: %+v, %v", p, ok)
	}
	if p.Eligible != 1.0 || p.Deadline != 2.0 {
		t.Fatalf("stamps: eligible %v deadline %v, want 1.0 and 2.0", p.Eligible, p.Deadline)
	}

	// An arrival exactly at t=2.0 is in the frame [2,3) and becomes
	// eligible at 3.0 — the *next* boundary, never its own.
	g.Enqueue(pkt(1, 2, 10), 2.0)
	if _, ok := g.Dequeue(2.0); ok {
		t.Fatal("boundary arrival eligible in its own frame")
	}
	if e, ok := g.NextEligible(2.5); !ok || e != 3.0 {
		t.Fatalf("NextEligible(2.5) = %v, %v; want 3.0", e, ok)
	}
	if p, ok = g.Dequeue(3.0); !ok || p.Seq != 2 {
		t.Fatalf("frame-3 dequeue: %+v, %v", p, ok)
	}
}

// TestStopAndGoFCFSWithinFrame checks that all packets of one arrival
// frame release together and serve in arrival order regardless of
// session.
func TestStopAndGoFCFSWithinFrame(t *testing.T) {
	g := NewStopAndGo(1.0)
	g.Enqueue(pkt(2, 1, 10), 0.1)
	g.Enqueue(pkt(1, 1, 10), 0.2)
	g.Enqueue(pkt(2, 2, 10), 0.3)
	// A later frame's packet must wait an extra frame.
	g.Enqueue(pkt(1, 2, 10), 1.1)

	want := []struct {
		sess int
		seq  int64
	}{{2, 1}, {1, 1}, {2, 2}}
	for _, w := range want {
		p, ok := g.Dequeue(1.5)
		if !ok || p.Session != w.sess || p.Seq != w.seq {
			t.Fatalf("within-frame order: got %+v, want session %d seq %d", p, w.sess, w.seq)
		}
	}
	if _, ok := g.Dequeue(1.5); ok {
		t.Fatal("frame-2 arrival served in frame 2")
	}
	if p, ok := g.Dequeue(2.0); !ok || p.Session != 1 || p.Seq != 2 {
		t.Fatalf("frame-3 release: %+v, %v", p, ok)
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
}
