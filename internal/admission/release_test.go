package admission

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"leaveintime/internal/rng"
)

// TestInterleavedAdmitReleaseNeverLeaks is the churn harness's
// no-reservation-leak property at the unit level: under randomized
// interleavings of Admit and Remove, each procedure's committed rate
// always equals the live set's (rejections leave state untouched),
// removing an unknown or already-removed session reports false without
// over-freeing, and once every session is removed the committed rate is
// exactly zero — not merely close to it. For procedures 1 and 2 "equals"
// is to the bit: the committed rate is the exact sum of the live rates,
// rounded once, although the rates are tenths and thirds of the link and
// arbitrary fractions, which no float sum adds without error. Procedure
// 3 keeps a plain running float sum and is held to 1e-6.
func TestInterleavedAdmitReleaseNeverLeaks(t *testing.T) {
	const c = 1e6
	classes := []Class{{R: 0.4 * c, Sigma: 20 * 400 / c}, {R: c, Sigma: 60 * 400 / c}}
	for proc := 1; proc <= 3; proc++ {
		t.Run(fmt.Sprintf("procedure%d", proc), func(t *testing.T) {
			for seed := uint64(1); seed <= 15; seed++ {
				ctl, err := New(proc, c, classes)
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(seed)
				live := map[int]float64{}
				id := 0
				pickLive := func() int {
					ids := make([]int, 0, len(live))
					for k := range live {
						ids = append(ids, k)
					}
					sort.Ints(ids)
					return ids[r.Intn(len(ids))]
				}
				for op := 0; op < 300; op++ {
					// Procedure 3's subset test is exponential in the live
					// set; keep it small enough to stay under its cap.
					admitting := r.Intn(2) == 0 && len(live) < 10
					switch {
					case admitting || len(live) == 0:
						id++
						rate := (0.01 + 0.08*r.Float64()) * c
						switch id % 3 {
						case 1:
							rate = 0.1 * c * float64(1+r.Intn(8)) / 10
						case 2:
							rate = c / 3 / float64(4+r.Intn(30))
						}
						l := []float64{400, 1000, 424*3 + 0.5}[r.Intn(3)]
						// d is read by procedure 3 only.
						spec := SessionSpec{ID: id, Rate: rate, LMax: l, LMin: 400}
						if _, err := ctl.Admit(spec, 1, Options{D: 10 * spec.LMax / rate}); err == nil {
							live[id] = rate
						}
					case r.Intn(8) == 0:
						if ctl.Remove(id + 1000) {
							t.Fatalf("seed %d op %d: removed a session that was never admitted", seed, op)
						}
					default:
						victim := pickLive()
						if !ctl.Remove(victim) {
							t.Fatalf("seed %d op %d: live session %d not found", seed, op, victim)
						}
						delete(live, victim)
						if ctl.Remove(victim) {
							t.Fatalf("seed %d op %d: double remove of %d over-freed", seed, op, victim)
						}
					}
					rates := make([]float64, 0, len(live))
					for _, rate := range live {
						rates = append(rates, rate)
					}
					got, want := ctl.TotalRate(), bigSum(rates...)
					if got != want && (proc != 3 || math.Abs(got-want) > 1e-6) {
						t.Fatalf("seed %d op %d: committed rate %b, live set %b", seed, op, got, want)
					}
				}
				for len(live) > 0 {
					victim := pickLive()
					ctl.Remove(victim)
					delete(live, victim)
				}
				if got := ctl.TotalRate(); got != 0 {
					t.Fatalf("seed %d: %g b/s leaked after removing every session", seed, got)
				}
			}
		})
	}
}
