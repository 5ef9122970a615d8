package simcheck

// This file is the fault side of a run (see internal/faults): the plan's
// link/node outages, source stalls and session churn arrive as ordinary
// events, and churned sessions are released and re-established through
// the real signaling exchange against the run's admission controllers.
// On a clean network the plan is empty and none of it is called, apart
// from the signaler every session gets at establishment: the final
// RELEASE pass of runScenario walks it on every run. run implements
// faults.Actions here.

import (
	"fmt"

	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/signaling"
)

func (r *run) port(name string) *network.Port {
	p, ok := r.ports[name]
	if !ok {
		panic(fmt.Sprintf("simcheck: fault plan names unknown port %q", name))
	}
	return p
}

func (r *run) session(id int) *sess {
	for _, s := range r.sessions {
		if s.Def.ID == id {
			return s
		}
	}
	panic(fmt.Sprintf("simcheck: fault plan names unknown session %d", id))
}

// LinkDown implements faults.Actions.
func (r *run) LinkDown(port string) { r.port(port).FailLink() }

// LinkUp implements faults.Actions.
func (r *run) LinkUp(port string) { r.port(port).RestoreLink() }

// NodeDown implements faults.Actions: a node outage fails every
// outgoing link of the node.
func (r *run) NodeDown(node string) {
	for _, p := range r.nodePorts(node) {
		p.FailLink()
	}
}

// NodeUp implements faults.Actions.
func (r *run) NodeUp(node string) {
	for _, p := range r.nodePorts(node) {
		p.RestoreLink()
	}
}

func (r *run) nodePorts(node string) []*network.Port {
	var ports []*network.Port
	for i := range r.sc.Servers {
		if sv := &r.sc.Servers[i]; sv.Node() == node {
			ports = append(ports, r.port(sv.Name))
		}
	}
	if len(ports) == 0 {
		panic(fmt.Sprintf("simcheck: fault plan names unknown node %q", node))
	}
	return ports
}

// StallSession implements faults.Actions.
func (r *run) StallSession(id int, on bool) {
	if cs := r.session(id); cs.live != nil {
		cs.live.SetStalled(on)
	}
}

// ReleaseSession implements faults.Actions: the session leaves mid-run.
// The network-level teardown is immediate — the source stops and every
// port of the route is purged, dropping queued and in-flight packets as
// traced "purge" losses — while the admission reservations are freed by
// a RELEASE walking the route through the signaling layer. A RELEASE
// lost to a link fault leaves the unreached nodes reserved; the resetup
// path or the final teardown pass reclaims them.
func (r *run) ReleaseSession(id int) {
	cs := r.session(id)
	if cs.live != nil {
		cs.Emitted += cs.live.Emitted
		cs.Delivered += cs.live.Delivered
		r.net.DropSession(cs.live)
		cs.live = nil
	}
	r.res.Reg.Arena().Inc(metrics.HFaultReleases)
	_ = cs.sig.Teardown(id, nil)
}

// ResetupSession implements faults.Actions: the churned session comes
// back, playing a fresh SETUP through admission control at every hop.
func (r *run) ResetupSession(id int) { r.resetup(r.session(id)) }

func (r *run) resetup(cs *sess) {
	id := cs.Def.ID
	if cs.sig.Established(id) {
		// The release's RELEASE message was lost mid-walk and part of
		// the route still holds the old reservation: retry the teardown
		// and re-SETUP once it completes. The retry is paced (instead
		// of immediate) so a RELEASE that keeps dying on a still-down
		// link advances simulated time rather than looping at one
		// instant; each attempt releases at least the first remaining
		// node, so the retries are bounded by the route length.
		_ = cs.sig.Teardown(id, func() {
			r.sim.After(0.005*r.sc.Duration, func() { r.resetup(cs) })
		})
		return
	}
	areq := admissionRequest(cs.Def)
	req := signaling.Request{Spec: areq.Spec, Class: areq.Class, Opts: areq.Opts}
	cs.sig.Establish(req, func(sres signaling.Result) {
		if !sres.Accepted {
			// Rejected even after the backoff retries, or the exchange
			// lost a message: the session stays gone, and reservations
			// stranded by a lost ACCEPT/REJECT wait for the final
			// teardown pass.
			r.res.Reg.Arena().Inc(metrics.HFaultResetupRejects)
			return
		}
		r.res.Reg.Arena().Inc(metrics.HFaultResetups)
		now := r.sim.Now()
		cfgs := sessionPorts(r.sc, cs.Def, cs.hops, sres.Assignments)
		cs.live = r.net.AddSession(id, cs.Def.Rate, cs.Def.JitterControl, cs.ports, cfgs, r.source(cs.Def))
		cs.live.Start(now, r.sc.Duration)
	})
}

// newSignaler builds the session's signaling path over its route: one
// node per hop, the hop's admission controller behind it, and the
// hop's real link state deciding message loss.
func (r *run) newSignaler(cs *sess) *signaling.Signaler {
	path := make([]*signaling.Node, len(cs.hops))
	for i, sv := range cs.hops {
		path[i] = &signaling.Node{Name: sv.Name, Admit: r.adm[sv.Name], Gamma: sv.Gamma}
	}
	sig := signaling.New(r.sim, path)
	ports := cs.ports
	id := cs.Def.ID
	sig.LinkDown = func(i int) bool { return ports[i].LinkDown() }
	sig.OnLost = func(kind string, node, _ int) {
		ports[node].NoteSignalingLoss(kind, id, node)
	}
	// Rejected re-SETUPs back off deterministically and retry: a churn
	// rejection is usually transient (another churned session's release
	// has not reached every node yet).
	sig.Retry = &signaling.Retry{Max: 3, Base: 0.01 * r.sc.Duration, Cap: 0.05 * r.sc.Duration}
	nodes := make([]int, len(path))
	for i := range nodes {
		nodes[i] = i
	}
	// The initial establishment happened at build time, before the
	// simulator ran; adopt it so mid-run teardowns walk the real path.
	if err := sig.Adopt(id, nodes); err != nil {
		panic(err)
	}
	return sig
}

// faultedPorts returns the ports whose outgoing link the plan takes
// down at any point (directly or through a node outage).
func faultedPorts(sc *Case) map[string]bool {
	out := make(map[string]bool)
	if sc.Faults == nil {
		return out
	}
	for _, l := range sc.Faults.Links {
		out[l.Port] = true
	}
	for _, n := range sc.Faults.Nodes {
		for i := range sc.Servers {
			if sv := &sc.Servers[i]; sv.Node() == n.Node {
				out[sv.Name] = true
			}
		}
	}
	return out
}

// cleanSurvivors filters the run's sessions down to the ones whose
// service commitments must have survived the chaos: never churned, and
// routed only over ports the plan never took down. A stalled source
// does not exempt a session — its reservation was held throughout, so
// its bounds must keep holding (isolation under silence). Churn and
// faults elsewhere in the network must not be observable here: that is
// the graceful-degradation guarantee under test.
func cleanSurvivors(res *runResult, sc *Case) []sessResult {
	bad := faultedPorts(sc)
	var out []sessResult
	for _, sr := range res.Sessions {
		if sc.Faults.Churned(sr.Def.ID) {
			continue
		}
		touched := false
		for _, pr := range sr.Probes {
			if bad[pr.Port] {
				touched = true
				break
			}
		}
		if !touched {
			out = append(out, sr)
		}
	}
	return out
}
