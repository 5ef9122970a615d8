package config

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	lit "leaveintime"
	"leaveintime/internal/scenarios"
	"leaveintime/internal/system"
)

// built is one entry point's view of the same network after the same
// run: what it promised each session and what each session saw.
type built struct {
	bounds                      []*system.Bounds
	emitted, delivered          []int64
	maxDelay                    []float64
	delayBound, jitterBound     []float64 // as the entry point reports them
	bufferBound                 [][]float64
	sessionsStanding, portCount int
}

func (b *built) observe(sessions []*lit.Session) {
	for _, s := range sessions {
		b.emitted = append(b.emitted, s.Emitted)
		b.delivered = append(b.delivered, s.Delivered)
		b.maxDelay = append(b.maxDelay, s.Delays.Max())
	}
	b.sessionsStanding = len(sessions)
}

// TestEntryPointsAgree is the first rung of the equivalence lattice:
// the Figure 6 tandem with 48 ON-OFF voice sessions (a_OFF = 6.5 ms) on
// the five-hop route, built through lit.System, through the figure
// scenarios' Tandem, and as a declarative document, must come out as
// one network — bit-identical delay, jitter and per-hop buffer bounds,
// and after 5 simulated seconds bit-identical per-session emitted,
// delivered and maximum delay. All three lower onto the same System; a
// difference means an entry point derives something on its own again.
func TestEntryPointsAgree(t *testing.T) {
	const (
		sessions = 48
		aOff     = 0.0065
		duration = 5.0
		seed     = 7
		dRef     = scenarios.CellBits / scenarios.VoiceRate
	)
	for _, jitter := range []bool{false, true} {
		t.Run(fmt.Sprintf("jitter=%v", jitter), func(t *testing.T) {
			views := map[string]*built{
				"lit.System": viaSystem(t, sessions, aOff, duration, seed, jitter),
				"Tandem":     viaTandem(sessions, aOff, duration, seed, jitter, dRef),
				"document":   viaDocument(t, sessions, aOff, duration, seed, jitter),
			}
			ref := views["lit.System"]
			if ref.sessionsStanding != sessions || ref.portCount != scenarios.NumNodes {
				t.Fatalf("lit.System built %d sessions on %d ports", ref.sessionsStanding, ref.portCount)
			}
			var delivered int64
			for _, d := range ref.delivered {
				delivered += d
			}
			if delivered == 0 {
				t.Fatal("nothing delivered: the comparison would be vacuous")
			}
			for s := 0; s < sessions; s++ {
				if len(ref.bufferBound[s]) != scenarios.NumNodes || ref.delayBound[s] <= ref.maxDelay[s] {
					t.Fatalf("session %d: %d buffer bounds, delay bound %v, max delay %v",
						s+1, len(ref.bufferBound[s]), ref.delayBound[s], ref.maxDelay[s])
				}
			}
			for name, v := range views {
				for _, f := range []struct {
					what      string
					got, want interface{}
				}{
					{"delay bounds", v.delayBound, ref.delayBound},
					{"jitter bounds", v.jitterBound, ref.jitterBound},
					{"buffer bounds", v.bufferBound, ref.bufferBound},
					{"emitted", v.emitted, ref.emitted},
					{"delivered", v.delivered, ref.delivered},
					{"max delays", v.maxDelay, ref.maxDelay},
				} {
					// DeepEqual compares float64 with ==: bit-identical
					// up to the sign of zero, and no NaN occurs here.
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s: %s differ from lit.System's\n got %v\nwant %v", name, f.what, f.got, f.want)
					}
				}
				for s, b := range v.bounds {
					if !reflect.DeepEqual(b.Route, ref.bounds[s].Route) || b.Beta != ref.bounds[s].Beta || b.Alpha != ref.bounds[s].Alpha {
						t.Errorf("%s: session %d route %+v, lit.System's %+v", name, s+1, b.Route, ref.bounds[s].Route)
					}
				}
			}
		})
	}
}

func viaSystem(t *testing.T, n int, aOff, duration float64, seed uint64, jitter bool) *built {
	sys, err := lit.NewSystem(lit.SystemConfig{LMax: scenarios.CellBits})
	if err != nil {
		t.Fatal(err)
	}
	var route []*lit.Server
	for h := 1; h <= scenarios.NumNodes; h++ {
		srv, err := sys.AddServer(fmt.Sprintf("node%d", h), scenarios.T1Rate, scenarios.PropDelay)
		if err != nil {
			t.Fatal(err)
		}
		route = append(route, srv)
	}
	out := &built{portCount: len(sys.Servers())}
	r := lit.NewRand(seed)
	for s := 0; s < n; s++ {
		_, b, err := sys.Connect(lit.ConnectRequest{
			Rate: scenarios.VoiceRate, Route: route, JitterControl: jitter,
			B0: scenarios.CellBits, Source: scenarios.NewOnOff(aOff, r.Split()),
		})
		if err != nil {
			t.Fatal(err)
		}
		out.record(b)
	}
	sys.Run(duration)
	out.observe(sys.Net.Sessions())
	return out
}

// record files the bounds an entry point computed itself.
func (b *built) record(bd *system.Bounds) {
	b.bounds = append(b.bounds, bd)
	b.delayBound = append(b.delayBound, bd.DelayBound)
	b.jitterBound = append(b.jitterBound, bd.JitterBound)
	b.bufferBound = append(b.bufferBound, bd.BufferBoundBits)
}

// viaTandem reads the bounds the way the figure runners do: off the
// Route that Establish returns, with D_ref_max supplied by the figure.
func viaTandem(n int, aOff, duration float64, seed uint64, jitter bool, dRef float64) *built {
	tn := scenarios.NewTandem(scenarios.TandemOptions{})
	out := &built{portCount: len(tn.Ports)}
	r := lit.NewRand(seed)
	for s := 0; s < n; s++ {
		_, b := tn.Establish(scenarios.SessionDef{
			Entrance: 1, Exit: scenarios.NumNodes, Rate: scenarios.VoiceRate,
			JitterCtrl: jitter, Src: scenarios.NewOnOff(aOff, r.Split()),
		})
		rt := b.Route
		out.bounds = append(out.bounds, b)
		out.delayBound = append(out.delayBound, rt.DelayBound(dRef))
		var buf []float64
		for hop := 1; hop <= scenarios.NumNodes; hop++ {
			if jitter {
				buf = append(buf, rt.BufferBoundControl(scenarios.VoiceRate, dRef, scenarios.CellBits, hop))
			} else {
				buf = append(buf, rt.BufferBoundNoControl(scenarios.VoiceRate, dRef, scenarios.CellBits, hop))
			}
		}
		out.bufferBound = append(out.bufferBound, buf)
		if jitter {
			out.jitterBound = append(out.jitterBound, rt.JitterBoundControl(dRef, scenarios.CellBits))
		} else {
			out.jitterBound = append(out.jitterBound, rt.JitterBoundNoControl(dRef, scenarios.CellBits))
		}
	}
	for _, s := range tn.Net.Sessions() {
		s.Start(0, duration)
	}
	tn.Sim.Run(duration)
	out.observe(tn.Net.Sessions())
	return out
}

// viaDocument goes through JSON and Parse, as litrun and litserve do.
// The delay and jitter bounds are the ones the Result reports.
func viaDocument(t *testing.T, n int, aOff, duration float64, seed uint64, jitter bool) *built {
	doc := Scenario{LMax: scenarios.CellBits, Duration: duration, Seed: seed}
	var route []string
	for h := 1; h <= scenarios.NumNodes; h++ {
		name := fmt.Sprintf("node%d", h)
		route = append(route, name)
		doc.Servers = append(doc.Servers, Server{Name: name, Capacity: scenarios.T1Rate, Gamma: scenarios.PropDelay})
	}
	for s := 1; s <= n; s++ {
		doc.Sessions = append(doc.Sessions, Session{
			Name: fmt.Sprintf("v%d", s), Rate: scenarios.VoiceRate, Route: route,
			JitterControl: jitter, B0: scenarios.CellBits,
			Source: Source{Kind: "onoff", T: scenarios.OnSpacing, Length: scenarios.CellBits,
				MeanOn: scenarios.OnMean, MeanOff: aOff},
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Start()
	run.RunSlice(duration)
	res := run.Finish()
	out := &built{portCount: len(run.sys.Servers())}
	for i, tr := range run.all {
		out.bounds = append(out.bounds, tr.Bounds)
		out.delayBound = append(out.delayBound, res.Sessions[i].DelayBound)
		out.jitterBound = append(out.jitterBound, res.Sessions[i].JitterBound)
		out.bufferBound = append(out.bufferBound, tr.Bounds.BufferBoundBits)
	}
	out.observe(run.sys.Net.Sessions())
	return out
}
