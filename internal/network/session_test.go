package network

import (
	"runtime"
	"testing"

	"leaveintime/internal/event"
	"leaveintime/internal/packet"
	"leaveintime/internal/rng"
	"leaveintime/internal/traffic"
)

// oneHop returns a network with one echo port, for session tests.
func oneHop() (*event.Simulator, *Network, []*Port) {
	sim := event.New()
	net := New(sim, 1000)
	return sim, net, []*Port{net.NewPort("a", 1e6, 0, &echoDisc{})}
}

// emission is what a delivered packet tells of its emission.
type emission struct {
	seq int64
	at  float64
}

// recordEmissions collects the sequence number and emission instant of
// every packet s delivers.
func recordEmissions(s *Session) *[]emission {
	var got []emission
	s.SetOnDeliver(func(p *packet.Packet, _ float64) {
		got = append(got, emission{p.Seq, p.SourceTime})
	})
	return &got
}

func sameEmissions(t *testing.T, got, want []emission) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emissions %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("emissions %v, want %v", got, want)
		}
	}
}

// TestAddSessionAllocatesOneObject: a call without a source costs one
// heap object of at most 128 B, the network.Session itself.
func TestAddSessionAllocatesOneObject(t *testing.T) {
	_, net, route := oneHop()
	cfgs := make([]SessionPort, 1)
	// A call stands throughout, as in a loaded switch: a session table
	// that empties drops its directory, and regrowing it is not the
	// call's cost.
	net.AddSession(0, 100, false, route, cfgs, nil)
	call := func() {
		net.RemoveSession(net.AddSession(1, 100, false, route, cfgs, nil))
	}
	call() // the session tables' slots for id 1
	if got := testing.AllocsPerRun(1000, call); got != 1 {
		t.Errorf("AddSession with no source makes %v allocations, want 1", got)
	}
	const calls = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > 128 {
		t.Errorf("AddSession with no source allocates %d B, want at most 128", got)
	}
}

// TestSourcelessStart: Start on a session with no source marks it
// started and schedules nothing.
func TestSourcelessStart(t *testing.T) {
	sim, net, route := oneHop()
	s := net.AddSession(1, 100, false, route, make([]SessionPort, 1), nil)
	s.Start(0, 10)
	if !s.Started() {
		t.Error("Started() false after Start")
	}
	if next, ok := sim.NextTime(); ok {
		t.Errorf("sourceless Start scheduled an event at %v", next)
	}
	sim.Run(10)
	if s.Emitted != 0 {
		t.Errorf("sourceless session emitted %d packets", s.Emitted)
	}
}

// TestStopCancelsEmission: Stop removes the pending emission from the
// engine and the source emits nothing more.
func TestStopCancelsEmission(t *testing.T) {
	sim, net, route := oneHop()
	s := net.AddSession(1, 100, false, route, make([]SessionPort, 1),
		&traffic.Deterministic{Interval: 1, Length: 100})
	s.Start(0, 10)
	sim.Run(2.5) // emissions at 1 and 2, the next pending at 3
	s.Stop()
	if next, ok := sim.NextTime(); ok {
		t.Errorf("an event at %v is still pending after Stop", next)
	}
	sim.Run(10)
	if s.Emitted != 2 {
		t.Errorf("emitted %d packets, want the 2 before Stop", s.Emitted)
	}
}

// TestRestartReplacesPendingEmission: a second Start while an emission
// is pending replaces it, and the packets' sequence numbers continue.
func TestRestartReplacesPendingEmission(t *testing.T) {
	sim, net, route := oneHop()
	s := net.AddSession(1, 100, false, route, make([]SessionPort, 1),
		&traffic.Deterministic{Interval: 1, Length: 100})
	got := recordEmissions(s)
	s.Start(0, 10)
	sim.Run(2.5) // emissions at 1 and 2, the next pending at 3
	s.Start(2.5, 5)
	sim.Run(10)
	sameEmissions(t, *got, []emission{{1, 1}, {2, 2}, {3, 3.5}, {4, 4.5}})
	if s.Emitted != 4 {
		t.Errorf("emitted %d packets, want 4", s.Emitted)
	}
}

// TestStallKeepsRhythm: a stalled source keeps drawing its emission
// instants, so after it resumes it emits exactly where an unstalled
// twin does, having emitted nothing while stalled.
func TestStallKeepsRhythm(t *testing.T) {
	run := func(stall bool) ([]emission, int64) {
		sim, net, route := oneHop()
		s := net.AddSession(1, 100, false, route, make([]SessionPort, 1),
			&traffic.Poisson{Mean: 0.5, Length: 100, Rng: rng.New(7)})
		got := recordEmissions(s)
		s.Start(0, 20)
		if stall {
			sim.Schedule(5, func() { s.SetStalled(true) })
			sim.Schedule(12, func() { s.SetStalled(false) })
		}
		sim.Run(30)
		return *got, s.Emitted
	}
	twin, twinEmitted := run(false)
	stalled, stalledEmitted := run(true)
	var want []emission
	var skipped int64
	for _, e := range twin {
		if e.at >= 5 && e.at < 12 {
			skipped++
			continue
		}
		want = append(want, emission{at: e.at})
	}
	if skipped == 0 || stalledEmitted != twinEmitted-skipped {
		t.Fatalf("stalled session emitted %d packets, its twin %d with %d in the stall", stalledEmitted, twinEmitted, skipped)
	}
	for i := range stalled {
		stalled[i].seq = 0 // a stalled instant issues no sequence number
	}
	sameEmissions(t, stalled, want)
}

// TestSourceAttachedAfterAdd: a source set after AddSession (admission
// first, the random stream drawn only for an accepted call) emits from
// the next Start.
func TestSourceAttachedAfterAdd(t *testing.T) {
	sim, net, route := oneHop()
	s := net.AddSession(1, 100, false, route, make([]SessionPort, 1), nil)
	s.SetSource(&traffic.Deterministic{Interval: 1, Length: 100})
	got := recordEmissions(s)
	s.Start(0, 3.5)
	sim.Run(10)
	sameEmissions(t, *got, []emission{{1, 1}, {2, 2}, {3, 3}})
}
