package scenarios

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"leaveintime/internal/config"
)

// approximate marks every server of a document for the approximate
// transmission queue, sched's lit-approx row.
func approximate(sc *config.Scenario) *config.Scenario {
	for i := range sc.Servers {
		sc.Servers[i].Approximate = true
	}
	return sc
}

// approxDigest runs the MIX tandem on approximate transmission queues
// with every third session jitter-controlled (so both push sites — the
// direct one and the regulator release — carry traffic) and folds every
// session's delivered count and delay statistics, bit for bit, into one
// hash. With drop set, the fourth session (five-hop, jitter-controlled)
// is purged mid-run, purging regulator and transmission queue at five
// ports.
func approxDigest(seed uint64, aOff float64, drop bool) string {
	const duration = 2.0
	sc := approximate(mixDoc(aOff, duration, seed))
	for i := range sc.Sessions {
		sc.Sessions[i].JitterControl = i%3 == 0
	}
	run := prepare(sc, nil)
	run.Start()
	if drop {
		run.RunSlice(duration / 2)
		run.PurgeSession(4)
	}
	run.RunSlice(duration)

	h := fnv.New64a()
	for _, c := range run.Conns() {
		s := c.Sess
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
