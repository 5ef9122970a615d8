package scenarios

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/system"
)

// approxTandem is the Figure 6 tandem with sched's lit-approx row, the
// approximate transmission queue, at every node.
func approxTandem() *Tandem {
	sys, err := system.New(system.Config{LMax: CellBits})
	if err != nil {
		panic(err)
	}
	row := sched.Lookup("lit-approx")
	t := &Tandem{Sim: sys.Sim, Net: sys.Net, sys: sys}
	for n := 1; n <= NumNodes; n++ {
		srv, err := sys.AddServerQueue(fmt.Sprintf("node%d", n), T1Rate, PropDelay, func(capacity, lMax float64) network.Discipline {
			return row.New(capacity, lMax, OnSpacing)
		})
		if err != nil {
			panic(err)
		}
		t.Ports = append(t.Ports, srv.Port)
	}
	return t
}

// approxDigest runs the MIX tandem on approximate transmission queues
// with every third session jitter-controlled (so both push sites — the
// direct one and the regulator release — carry traffic) and folds every
// session's delivered count and delay statistics, bit for bit, into one
// hash. With drop set, the fourth session (five-hop, jitter-controlled)
// is torn down mid-run, purging regulator and transmission queue at
// five ports.
func approxDigest(seed uint64, aOff float64, drop bool) string {
	const duration = 2.0
	t := approxTandem()
	r := rng.New(seed)
	var sessions []*network.Session
	for _, mr := range MixRoutes {
		for i := 0; i < mr.Count; i++ {
			s, _ := t.Establish(SessionDef{
				Entrance:   mr.Entrance,
				Exit:       mr.Exit,
				Rate:       VoiceRate,
				JitterCtrl: len(sessions)%3 == 0,
				Src:        NewOnOff(aOff, r.Split()),
			})
			sessions = append(sessions, s)
		}
	}
	for _, s := range sessions {
		s.Start(0, duration)
	}
	if drop {
		t.Sim.Run(duration / 2)
		t.Net.DropSession(sessions[3])
	}
	t.Sim.Run(duration)

	h := fnv.New64a()
	for _, s := range sessions {
		for _, v := range []uint64{
			uint64(s.Delivered),
			math.Float64bits(s.Delays.Max()),
			math.Float64bits(s.Delays.Mean()),
			math.Float64bits(s.Delays.Jitter()),
		} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestApproximateGolden pins the service order of the approximate
// transmission queue: the digests were recorded at commit f8058e9, when
// the queue was a ring-of-bins calendar, and any implementation of
// "smallest occupied day of L_MAX/C, first pushed within it" must
// reproduce them exactly.
func TestApproximateGolden(t *testing.T) {
	cases := []struct {
		seed uint64
		aOff float64
		drop bool
		want string
	}{
		{1, AOffValues[0], false, "6df201cbdaa5d779"},
		{2, AOffValues[0], false, "9dc26e3a6cf0d645"},
		{3, AOffValues[0], false, "6939132630edb93f"},
		{1, AOffValues[3], false, "06803923867e5bd5"},
		{2, AOffValues[3], false, "dc2282c7eb15ae95"},
		{3, AOffValues[3], false, "545fbae77c79a70f"},
		{1, AOffValues[0], true, "3af3ee435d9491b4"},
	}
	for _, c := range cases {
		if got := approxDigest(c.seed, c.aOff, c.drop); got != c.want {
			t.Errorf("seed %d aOff %v drop %v: digest %s, want %s", c.seed, c.aOff, c.drop, got, c.want)
		}
	}
}
