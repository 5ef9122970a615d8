package scenarios

import (
	"testing"

	"leaveintime/internal/config"
)

// TestScenarioPoolBalance runs smoke-sized versions of the figure
// workloads with pool ownership tracking enabled and asserts the
// packet-lifecycle invariant after the network drains: every packet
// taken from the pool (emitted) has been released (delivered), with no
// leak and no double release (debug mode panics on the latter).
func TestScenarioPoolBalance(t *testing.T) {
	const stop = 2.0
	cases := []struct {
		name string
		doc  func() *config.Scenario
	}{
		{"fig7-mix", func() *config.Scenario { return mixDoc(0.0065, stop, 1) }},
		{"fig8-cross", func() *config.Scenario { return crossDoc(stop, 1) }},
	}
	for _, approx := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if approx {
				name += "-calendar"
			}
			t.Run(name, func(t *testing.T) {
				sc := tc.doc()
				if approx {
					approximate(sc)
				}
				run := prepare(sc, nil)
				net := run.System().Net
				net.SetPoolDebug(true)
				run.Start()
				// RunAll drains everything the sources emitted up to
				// the stop time: the network must end empty.
				run.Sim().RunAll()
				var emitted int64
				for _, s := range net.Sessions() {
					emitted += s.Emitted
					if s.Delivered != s.Emitted {
						t.Errorf("session %d: emitted %d delivered %d", s.ID, s.Emitted, s.Delivered)
					}
				}
				st := net.PoolStats()
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
