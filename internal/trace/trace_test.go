package trace

import "testing"

func TestRecorderCapAndFilter(t *testing.T) {
	r := &Recorder{Cap: 2}
	r.Trace(Event{Session: 1, Kind: Arrive})
	r.Trace(Event{Session: 2, Kind: Arrive})
	r.Trace(Event{Session: 1, Kind: TransmitEnd})
	if len(r.Events) != 2 || r.Dropped != 1 {
		t.Fatalf("cap not enforced: %d events, %d dropped", len(r.Events), r.Dropped)
	}
	// The cap keeps the first events and drops the later ones.
	if r.Events[0].Session != 1 || r.Events[1].Session != 2 {
		t.Fatalf("kept %v, want the first two events", r.Events)
	}
}

func TestPerHopDelays(t *testing.T) {
	r := &Recorder{}
	// Packet 1 through two hops.
	evs := []Event{
		{Time: 0, Kind: Arrive, Port: "a", Session: 1, Seq: 1, Hop: 0},
		{Time: 0.2, Kind: TransmitStart, Port: "a", Session: 1, Seq: 1, Hop: 0},
		{Time: 0.3, Kind: TransmitEnd, Port: "a", Session: 1, Seq: 1, Hop: 0},
		{Time: 0.4, Kind: Arrive, Port: "b", Session: 1, Seq: 1, Hop: 1},
		{Time: 0.4, Kind: TransmitStart, Port: "b", Session: 1, Seq: 1, Hop: 1},
		{Time: 0.5, Kind: TransmitEnd, Port: "b", Session: 1, Seq: 1, Hop: 1},
		{Time: 0.6, Kind: Deliver, Session: 1, Seq: 1, Hop: 1},
		// Noise from another session.
		{Time: 0.1, Kind: Arrive, Port: "a", Session: 2, Seq: 1, Hop: 0},
	}
	for _, e := range evs {
		r.Trace(e)
	}
	hops := r.PerHopDelays(1)
	if len(hops) != 2 {
		t.Fatalf("hops = %v", hops)
	}
	if hops[0].Port != "a" || hops[1].Port != "b" {
		t.Fatalf("hop order: %v %v", hops[0].Port, hops[1].Port)
	}
	if got := hops[0].Queue.Mean(); got != 0.2 {
		t.Errorf("hop a queueing = %v, want 0.2", got)
	}
	if got := hops[0].Transit.Mean(); got != 0.3 {
		t.Errorf("hop a transit = %v, want 0.3", got)
	}
	if got := hops[1].Transit.Mean(); got < 0.0999 || got > 0.1001 {
		t.Errorf("hop b transit = %v, want 0.1", got)
	}
}

// failAfter fails every write after the first n.
type failAfter struct {
	n    int
	errs int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		f.errs++
		return 0, errWriteFailed
	}
	f.n--
	return len(p), nil
}

var errWriteFailed = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "sink failed" }

// TestWriterErrorRetention pins the audit result for the panic sweep:
// Writer never panics on a failing sink — it retains the first write
// error in Err and silently drops every subsequent event.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Arrive: "arrive", TransmitStart: "start",
		TransmitEnd: "end", Deliver: "deliver", Drop: "drop",
		Kind(9): "kind(9)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}
