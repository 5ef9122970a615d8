package scenarios

import (
	"testing"

	"leaveintime/internal/rng"
	"leaveintime/internal/traffic"
)

// TestScenarioPoolBalance runs smoke-sized versions of the figure
// workloads with pool ownership tracking enabled and asserts the
// packet-lifecycle invariant after the network drains: every packet
// taken from the pool (emitted) has been released (delivered), with no
// leak and no double release (debug mode panics on the latter).
func TestScenarioPoolBalance(t *testing.T) {
	cases := []struct {
		name  string
		build func(tn *Tandem, r *rng.Rand)
	}{
		{"fig7-mix", func(tn *Tandem, r *rng.Rand) {
			for _, mr := range MixRoutes {
				for i := 0; i < mr.Count; i++ {
					tn.Establish(SessionDef{
						Entrance: mr.Entrance,
						Exit:     mr.Exit,
						Rate:     VoiceRate,
						Src:      NewOnOff(0.0065, r.Split()),
					})
				}
			}
		}},
		{"fig8-cross", func(tn *Tandem, r *rng.Rand) {
			def := SessionDef{Entrance: 1, Exit: 5, Rate: VoiceRate,
				Src: NewOnOff(Fig8OnOffAOff, r.Split())}
			tn.Establish(def)
			def.JitterCtrl = true
			def.Src = NewOnOff(Fig8OnOffAOff, r.Split())
			tn.Establish(def)
			for _, cr := range CrossRoutes {
				tn.Establish(SessionDef{
					Entrance: cr.Entrance,
					Exit:     cr.Exit,
					Rate:     Fig8CrossRate,
					Src:      &traffic.Poisson{Mean: Fig8CrossMean, Length: CellBits, Rng: r.Split()},
				})
			}
		}},
	}
	for _, approx := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if approx {
				name += "-calendar"
			}
			t.Run(name, func(t *testing.T) {
				tn := NewTandem(TandemOptions{})
				if approx {
					tn = approxTandem()
				}
				tn.Net.SetPoolDebug(true)
				tc.build(tn, rng.New(1))
				const stop = 2.0
				var emitted int64
				for _, s := range tn.Net.Sessions() {
					s.Start(0, stop)
				}
				// RunAll drains everything the sources emitted up to
				// the stop time: the network must end empty.
				tn.Sim.RunAll()
				for _, s := range tn.Net.Sessions() {
					emitted += s.Emitted
					if s.Delivered != s.Emitted {
						t.Errorf("session %d: emitted %d delivered %d", s.ID, s.Emitted, s.Delivered)
					}
				}
				st := tn.Net.PoolStats()
				if st.Taken != emitted {
					t.Errorf("pool taken %d, sessions emitted %d", st.Taken, emitted)
				}
				if st.Live != 0 || st.Released != st.Taken {
					t.Errorf("pool leak after drain: %+v", st)
				}
				if emitted == 0 {
					t.Fatal("scenario emitted no packets")
				}
			})
		}
	}
}
