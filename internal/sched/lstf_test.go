package sched

import (
	"testing"

	"leaveintime/internal/network"
)

// TestLSTFSlackOrder checks the core rule: among queued packets the
// least due time (arrival + carried slack) wins, regardless of arrival
// order.
func TestLSTFSlackOrder(t *testing.T) {
	l := NewLSTF()
	l.AddSession(network.SessionPort{Session: 1})
	l.AddSession(network.SessionPort{Session: 2})

	// Session 1 arrives first but with generous slack; session 2
	// arrives later nearly out of slack.
	p1 := pkt(1, 1, 424)
	p1.Hold = 10e-3
	l.Enqueue(p1, 0)
	p2 := pkt(2, 1, 424)
	p2.Hold = 1e-3
	l.Enqueue(p2, 2e-3)

	got, ok := l.Dequeue(2e-3)
	if !ok || got.Session != 2 {
		t.Fatalf("least-slack first: got session %d", got.Session)
	}
	if got, ok = l.Dequeue(2e-3); !ok || got.Session != 1 {
		t.Fatalf("second pop: got session %d", got.Session)
	}
	if _, held := l.NextEligible(0); held {
		t.Fatal("LSTF claims to hold packets")
	}
}

// TestLSTFCarriesResidualSlack checks OnTransmit: the slack this node
// did not consume rides downstream in the header, and a late packet
// carries zero rather than debt.
func TestLSTFCarriesResidualSlack(t *testing.T) {
	l := NewLSTF()
	l.AddSession(network.SessionPort{Session: 1})

	p := pkt(1, 1, 424)
	p.Hold = 10e-3
	l.Enqueue(p, 0) // due = 10 ms
	p, _ = l.Dequeue(0)
	l.OnTransmit(p, 4e-3)
	if p.Hold != 6e-3 {
		t.Fatalf("residual slack %v, want 6ms", p.Hold)
	}

	late := pkt(1, 2, 424)
	late.Hold = 1e-3
	l.Enqueue(late, 0) // due = 1 ms
	late, _ = l.Dequeue(0)
	l.OnTransmit(late, 5e-3)
	if late.Hold != 0 {
		t.Fatalf("late packet carries %v, want 0", late.Hold)
	}
}

// TestLSTFValidation pins the hot-path panic.
func TestLSTFValidation(t *testing.T) {
	mustPanic(t, "Enqueue for unregistered session", func() {
		NewLSTF().Enqueue(pkt(9, 1, 424), 0)
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
