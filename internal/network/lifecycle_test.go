package network_test

import (
	"fmt"
	"testing"

	"leaveintime/internal/core"
	"leaveintime/internal/event"
	"leaveintime/internal/network"
	"leaveintime/internal/sched"
	"leaveintime/internal/trace"
)

// terminals counts the packets that left the pool, one Deliver or one
// Drop each, in all and by session id.
type terminals struct {
	n    int64
	byID [5]int64
}

func (c *terminals) Trace(e trace.Event) {
	if e.Kind == trace.Deliver || e.Kind == trace.Drop {
		c.n++
		c.byID[e.Session]++
	}
}

// lifecycleBaselines are the sched.Table rows that keep per-session
// state and can forget a session: the baselines RemoveSession reaches.
func lifecycleBaselines() []sched.Row {
	var rows []sched.Row
	for _, row := range sched.Table {
		d := row.New(1536e3, 424, 0.01)
		_, removes := d.(network.SessionRemover)
		_, checks := d.(network.SessionChecker)
		if _, lit := d.(*core.LiT); removes && checks && !lit {
			rows = append(rows, row)
		}
	}
	return rows
}

// FuzzSessionLifecycle plays scripts of session adds, removals, drops,
// stale-handle removals and drops, packet injections and event runs
// against a map model of the live sessions, over a route of a
// Leave-in-Time port and a baseline (and, for odd first bytes, a second
// Leave-in-Time port). The first byte picks the route; then each pair
// (op, arg) is one step on id arg%4+1. RemoveSession is asked only of a
// session none of whose packets is in the network, as it documents; a
// drop takes one anywhere. After every step Sessions() is the model's
// live handles, every port's HasSession agrees with the model, the pool
// has taken one packet per injection and released one per traced
// Deliver or Drop, and the only panic is AddSession's on a live id. The
// script ends with a drain that must leave no packet live.
func FuzzSessionLifecycle(f *testing.F) {
	// TestStaleHandleIsNoOp: add 3, remove it, add 3 again, remove and
	// drop the stale handle, send on the live one.
	f.Add([]byte{0, 0, 2, 1, 2, 0, 2, 3, 0, 3, 1, 4, 2, 5, 255})
	// On the three-port route: add 1, send, drop it with the packet on
	// the link, add 1 again and send, drop the stale handle, drain.
	f.Add([]byte{1, 0, 0, 4, 0, 2, 0, 0, 0, 4, 0, 3, 1, 5, 255})
	// A live id added twice; a removal asked with a packet on the wire
	// waits for the drain.
	f.Add([]byte{2, 0, 1, 0, 1, 4, 1, 5, 2, 1, 1, 5, 255, 1, 1, 0, 1})
	baselines := lifecycleBaselines()
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if len(script) > 512 {
			script = script[:512]
		}
		sim := event.New()
		net := network.New(sim, 424)
		net.SetPoolDebug(true)
		left := &terminals{}
		net.Tracer = left
		base := baselines[int(script[0]>>1)%len(baselines)]
		route := []*network.Port{
			net.NewPort("lit", 1536e3, 1e-3, core.New(core.Config{Capacity: 1536e3, LMax: 424})),
			net.NewPort(base.Name, 1536e3, 1e-3, base.New(1536e3, 424, 0.01)),
		}
		if script[0]&1 == 1 {
			route = append(route, net.NewPort("lit2", 1536e3, 1e-3, core.New(core.Config{Capacity: 1536e3, LMax: 424})))
		}
		cfg := network.SessionPort{Rate: 32e3, LocalDelay: 1e-3, XMin: 1e-3, DMax: 1e-3}
		cfgs := make([]network.SessionPort, len(route))
		for i := range cfgs {
			cfgs[i] = cfg
		}

		live := map[int]*network.Session{}
		var stale []*network.Session
		var injected int64
		var injectedByID [5]int64
		check := func(step int) {
			t.Helper()
			got := net.Sessions()
			if len(got) != len(live) {
				t.Fatalf("step %d: %d sessions listed, model holds %d", step, len(got), len(live))
			}
			for _, s := range got {
				if live[s.ID] != s {
					t.Fatalf("step %d: Sessions() lists %p (id %d), model holds %p", step, s, s.ID, live[s.ID])
				}
			}
			for _, p := range route {
				for id := 1; id <= 4; id++ {
					if has := p.Disc.(network.SessionChecker).HasSession(id); has != (live[id] != nil) {
						t.Fatalf("step %d: port %s HasSession(%d) = %v, model %v", step, p.Name, id, has, live[id] != nil)
					}
				}
			}
			if st := net.PoolStats(); st.Taken != injected || st.Released != left.n {
				t.Fatalf("step %d: pool %+v, want %d taken and %d released (traced Deliver and Drop)", step, st, injected, left.n)
			}
		}
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i]%6, script[i+1]
			id := int(arg%4) + 1
			step := i / 2
			switch op {
			case 0: // add
				dup := live[id] != nil
				msg := catch(func() {
					live[id] = net.AddSession(id, 32e3, arg&4 != 0, route, cfgs, nil)
				})
				if want := fmt.Sprintf("network: session id %d is already established", id); dup != (msg != "") || dup && msg != want {
					t.Fatalf("step %d: AddSession(%d) with the id live=%v panicked %q", step, id, dup, msg)
				}
			case 1, 2: // remove (when drained) or drop the live handle
				if s := live[id]; s != nil && (op == 2 || injectedByID[id] == left.byID[id]) {
					if op == 1 {
						net.RemoveSession(s)
					} else {
						net.DropSession(s)
					}
					delete(live, id)
					stale = append(stale, s)
				}
			case 3: // remove or drop a stale handle: a no-op
				if len(stale) > 0 {
					s := stale[int(arg>>1)%len(stale)]
					if arg&1 == 0 {
						net.RemoveSession(s)
					} else {
						net.DropSession(s)
					}
				}
			case 4: // send one packet on the live handle
				if s := live[id]; s != nil {
					s.InjectAt(sim.Now(), 424)
					injected++
					injectedByID[id]++
				}
			case 5: // run some events
				sim.Run(sim.Now() + float64(arg)*1e-4)
			}
			check(step)
		}
		sim.RunAll()
		check(len(script) / 2)
		if st := net.PoolStats(); st.Live != 0 {
			t.Fatalf("pool after the drain: %+v, want nothing live", st)
		}
	})
}

// catch runs f and returns the text of its panic, "" when it returns.
func catch(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
