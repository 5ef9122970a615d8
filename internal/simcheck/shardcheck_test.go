package simcheck

import "testing"

// TestShardInvarianceBattery sweeps generated scenarios through the
// sharded runtime at several shard counts, demanding byte-identical
// traces, statistics, violation sets and merged telemetry against
// shards=1. The scenarios cover every topology kind, source kind,
// admission procedure, jitter control and the VirtualClock special
// case, so this is the randomized end of the serial ≡ sharded proof.
func TestShardInvarianceBattery(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for _, shards := range []int{4, 8} {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			rep := CheckShardInvariance(seed, shards, Options{})
			if !rep.OK() {
				t.Fatalf("shards=%d seed %d:\n%s", shards, seed, rep.Format())
			}
		}
	}
}

// TestShardInvarianceDeterministic pins the report itself: same seed,
// same shard count, byte-identical Format output.
func TestShardInvarianceDeterministic(t *testing.T) {
	a := CheckShardInvariance(7, 4, Options{}).Format()
	b := CheckShardInvariance(7, 4, Options{}).Format()
	if a != b {
		t.Fatalf("reports differ:\n%s\n%s", a, b)
	}
}

func TestShardInvarianceRejectsBadCount(t *testing.T) {
	rep := CheckShardInvariance(1, 1, Options{})
	if rep.OK() {
		t.Fatal("shards=1 comparison accepted")
	}
}
