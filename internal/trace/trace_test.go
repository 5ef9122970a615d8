package trace

import (
	"strings"
	"testing"
)

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
func TestWriterErrorRetention(t *testing.T) {
	cases := []struct {
		name      string
		okWrites  int
		events    int
		wantErrs  int // writes attempted after the sink starts failing
		wantAfter bool
	}{
		{"first write fails", 0, 3, 1, true},
		{"second write fails", 1, 3, 1, true},
		{"no failure", 3, 3, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &failAfter{n: tc.okWrites}
			w := &Writer{W: sink}
			for i := 0; i < tc.events; i++ {
				w.Trace(Event{Time: float64(i), Kind: Arrive, Port: "p", Session: 1})
			}
			if tc.wantAfter && w.Err == nil {
				t.Fatal("write error not retained")
			}
			if !tc.wantAfter && w.Err != nil {
				t.Fatalf("unexpected Err: %v", w.Err)
			}
			// Only the first failing write reaches the sink; later
			// events are dropped before touching it.
			if sink.errs != tc.wantErrs {
				t.Errorf("sink saw %d failing writes, want %d", sink.errs, tc.wantErrs)
			}
		})
	}
}

func TestWriterFormatAndFilter(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb, Sessions: []int{7}}
	w.Trace(Event{Time: 1.5, Kind: TransmitStart, Port: "x", Session: 7, Seq: 3, Hop: 2, Deadline: 2})
	w.Trace(Event{Time: 1.6, Kind: Arrive, Port: "x", Session: 8})
	out := sb.String()
	if !strings.Contains(out, "start") || !strings.Contains(out, "s7/3") {
		t.Errorf("output %q", out)
	}
	if strings.Contains(out, "s8") {
		t.Error("session filter leaked")
	}
}

// TestWriterSessionZero is the regression test for the old sentinel
// filter (Session != 0 meant "filter"), which made session 0 — a valid
// ID — impossible to select.
func TestWriterSessionZero(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb, Sessions: []int{0}}
	w.Trace(Event{Time: 1, Kind: Arrive, Port: "x", Session: 0, Seq: 1})
	w.Trace(Event{Time: 2, Kind: Arrive, Port: "x", Session: 1, Seq: 1})
	out := sb.String()
	if !strings.Contains(out, "s0/1") {
		t.Errorf("session 0 filtered out: %q", out)
	}
	if strings.Contains(out, "s1/1") {
		t.Errorf("filter leaked session 1: %q", out)
	}

	// A nil slice passes everything; an empty one passes nothing.
	sb.Reset()
	w = &Writer{W: &sb}
	w.Trace(Event{Time: 1, Kind: Arrive, Port: "x", Session: 0, Seq: 1})
	w.Trace(Event{Time: 2, Kind: Drop, Port: "x", Session: 5, Seq: 2})
	if out := sb.String(); !strings.Contains(out, "s0/1") || !strings.Contains(out, "s5/2") {
		t.Errorf("nil filter should pass all sessions: %q", out)
	}
	sb.Reset()
	w = &Writer{W: &sb, Sessions: []int{}}
	w.Trace(Event{Time: 1, Kind: Arrive, Port: "x", Session: 0, Seq: 1})
	if sb.Len() != 0 {
		t.Errorf("empty filter should pass nothing: %q", sb.String())
	}
}

func TestMulti(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	m := Multi{a, b}
	m.Trace(Event{Session: 1})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Error("Multi did not fan out")
	}
}

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
