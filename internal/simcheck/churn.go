package simcheck

// This file is the harness's chaos mode: when a scenario carries a
// fault plan (see internal/faults), runChurn replaces runScenario. The
// same network is built, but the plan's link/node outages, source
// stalls and session churn are injected as ordinary events, churned
// sessions are released and re-established through the real signaling
// exchange against the run's admission controllers, and a watchdog
// bounds the run. The battery then checks graceful degradation instead
// of clean-network bounds: survivors keep their service commitments,
// packet conservation holds counting fault losses, the packet pool
// drains, telemetry agrees including the fault counters, and after a
// final teardown pass every controller is back to exactly zero
// reserved capacity.

import (
	"fmt"

	"leaveintime/internal/config"
	"leaveintime/internal/faults"
	"leaveintime/internal/metrics"
	"leaveintime/internal/network"
	"leaveintime/internal/signaling"
)

// churnSess is one scenario session's lifecycle state across the run:
// the current network incarnation (nil while released), counters
// aggregated over finished incarnations, and the session's signaler.
type churnSess struct {
	def    *config.Session
	hops   []*config.Server
	ports  []*network.Port
	sig    *signaling.Signaler
	live   *network.Session
	sr     *sessResult
	probes []*network.BufferProbe

	// emitted and delivered accumulate over incarnations torn down
	// mid-run; the live incarnation's counters are folded in at
	// collection time.
	emitted   int64
	delivered int64
}

// churnRun is the chaos harness for one discipline's run; it implements
// faults.Actions.
type churnRun struct {
	*run
	byID  map[int]*churnSess
	order []*churnSess
}

func (r *churnRun) port(name string) *network.Port {
	p, ok := r.ports[name]
	if !ok {
		panic(fmt.Sprintf("simcheck: fault plan names unknown port %q", name))
	}
	return p
}

func (r *churnRun) sess(id int) *churnSess {
	cs, ok := r.byID[id]
	if !ok {
		panic(fmt.Sprintf("simcheck: fault plan names unknown session %d", id))
	}
	return cs
}

// LinkDown implements faults.Actions.
func (r *churnRun) LinkDown(port string) { r.port(port).FailLink() }

// LinkUp implements faults.Actions.
func (r *churnRun) LinkUp(port string) { r.port(port).RestoreLink() }

// NodeDown implements faults.Actions: a node outage fails every
// outgoing link of the node.
func (r *churnRun) NodeDown(node string) {
	for _, p := range r.nodePorts(node) {
		p.FailLink()
	}
}

// NodeUp implements faults.Actions.
func (r *churnRun) NodeUp(node string) {
	for _, p := range r.nodePorts(node) {
		p.RestoreLink()
	}
}

func (r *churnRun) nodePorts(node string) []*network.Port {
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
func (r *churnRun) StallSession(id int, on bool) {
	if cs := r.sess(id); cs.live != nil {
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
func (r *churnRun) ReleaseSession(id int) {
	cs := r.sess(id)
	if cs.live != nil {
		cs.emitted += cs.live.Emitted
		cs.delivered += cs.live.Delivered
		r.net.DropSession(cs.live)
		cs.live = nil
	}
	if m := r.net.Metrics(); m != nil {
		m.Arena().Inc(metrics.HFaultReleases)
	}
	_ = cs.sig.Teardown(id, nil)
}

// ResetupSession implements faults.Actions: the churned session comes
// back, playing a fresh SETUP through admission control at every hop.
func (r *churnRun) ResetupSession(id int) { r.resetup(r.sess(id)) }

func (r *churnRun) resetup(cs *churnSess) {
	id := cs.def.ID
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
	areq := admissionRequest(cs.def)
	req := signaling.Request{Spec: areq.Spec, Class: areq.Class, Opts: areq.Opts}
	cs.sig.Establish(req, func(sres signaling.Result) {
		m := r.net.Metrics()
		if !sres.Accepted {
			// Rejected even after the backoff retries, or the exchange
			// lost a message: the session stays gone, and reservations
			// stranded by a lost ACCEPT/REJECT wait for the final
			// teardown pass.
			if m != nil {
				m.Arena().Inc(metrics.HFaultResetupRejects)
			}
			return
		}
		if m != nil {
			m.Arena().Inc(metrics.HFaultResetups)
		}
		now := r.sim.Now()
		cfgs := sessionPorts(r.sc, cs.def, cs.hops, sres.Assignments)
		cs.live = r.net.AddSession(id, cs.def.Rate, cs.def.JitterControl, cs.ports, cfgs, r.source(cs.def))
		cs.live.Start(now, r.sc.Duration)
	})
}

// newSignaler builds the session's signaling path over its route: one
// node per hop, the hop's admission controller behind it, and the
// hop's real link state deciding message loss.
func (r *churnRun) newSignaler(cs *churnSess) *signaling.Signaler {
	path := make([]*signaling.Node, len(cs.hops))
	for i, sv := range cs.hops {
		path[i] = &signaling.Node{Name: sv.Name, Admit: r.adm[sv.Name], Gamma: sv.Gamma}
	}
	sig := signaling.New(r.sim, path)
	ports := cs.ports
	id := cs.def.ID
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

// runChurn is runScenario under the scenario's fault plan: same
// network, same establishment, plus the injected chaos and a final
// teardown pass that returns every reservation through the signaling
// layer. Per-session counters aggregate across a churned session's
// incarnations.
func runChurn(sc *Case, spec discSpec, opts runOpts) (*runResult, error) {
	base, err := newRun(sc, spec, opts)
	if err != nil {
		return nil, err
	}
	r := &churnRun{run: base, byID: make(map[int]*churnSess)}
	for i := range sc.Sessions {
		def := &sc.Sessions[i]
		sr, sess, probes, ok := r.establish(def)
		if !ok {
			continue
		}
		cs := &churnSess{def: def, hops: sc.hops(def), ports: r.route(def), live: sess, sr: sr, probes: probes}
		cs.sig = r.newSignaler(cs)
		r.byID[def.ID] = cs
		r.order = append(r.order, cs)
	}

	faults.Inject(r.sim, r, sc.Faults)
	for _, cs := range r.order {
		cs.live.Start(0, sc.Duration)
	}
	r.sim.RunAll()
	if !r.finishTrip() {
		// Final teardown pass: every reservation still held — the
		// survivors', the re-established churners', and any remnant
		// stranded by a lost signaling message — goes back through the
		// normal RELEASE walk, so the capacity-zero check exercises the
		// same release path mid-run teardowns use. All fault windows
		// have closed by now, so no RELEASE can be lost again.
		for _, cs := range r.order {
			if cs.sig.Established(cs.def.ID) {
				_ = cs.sig.Teardown(cs.def.ID, nil)
			}
		}
		r.sim.RunAll()
	}

	for _, cs := range r.order {
		if cs.live != nil {
			cs.emitted += cs.live.Emitted
			cs.delivered += cs.live.Delivered
		}
		cs.sr.Emitted = cs.emitted
		cs.sr.Delivered = cs.delivered
		cs.sr.collect(cs.live, cs.probes)
		r.res.Sessions = append(r.res.Sessions, *cs.sr)
	}
	r.res.Pool = r.net.PoolStats()
	return r.res, nil
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

// checkChurnDrain is packet conservation under chaos: per session,
// packets emitted across every incarnation equal deliveries plus every
// traced packet loss (buffer-limit, fault and purge drops), and the
// pool got every packet back once the network drained.
func checkChurnDrain(res *runResult, rep *SeedReport) {
	for _, sr := range res.Sessions {
		drops := res.Counts.SessDrops[sr.Def.ID]
		if sr.Delivered+drops != sr.Emitted {
			rep.add(Violation{Check: "conservation", Discipline: res.Name, Session: sr.Def.ID,
				Detail: fmt.Sprintf("emitted %d != delivered %d + dropped %d (buffer+fault+purge)",
					sr.Emitted, sr.Delivered, drops)})
		}
	}
	if res.Pool.Live != 0 || res.Pool.Released > res.Pool.Taken {
		rep.add(Violation{Check: "pool-balance", Discipline: res.Name,
			Detail: fmt.Sprintf("taken %d released %d live %d after drain",
				res.Pool.Taken, res.Pool.Released, res.Pool.Live)})
	}
}

// checkCapacity demands that after the final teardown pass every
// link's admission controller is back to exactly zero reserved rate:
// released capacity is really released, with no residue from churn,
// lost signaling messages, or the retry paths.
func checkCapacity(res *runResult, sc *Case, rep *SeedReport) {
	for i := range sc.Servers {
		key := sc.Servers[i].Name
		ctrl, ok := res.Adm[key]
		if !ok {
			continue
		}
		if rate := ctrl.TotalRate(); rate != 0 {
			rep.add(Violation{Check: "capacity-leak", Discipline: res.Name, Port: key,
				Detail: fmt.Sprintf("%.9g bits/s still reserved after final teardown", rate)})
		}
	}
}

// checkChurnTelemetry is the fault-aware triple agreement: per port,
// the trace stream, the metrics registry and the buffer probes must
// tell the same story with drops partitioned by cause — buffer-limit
// drops (also counted by the probes), fault/purge packet losses, and
// lost signaling messages.
func checkChurnTelemetry(res *runResult, rep *SeedReport) {
	probeDrops := make(map[string]int64)
	for _, sr := range res.Sessions {
		for _, pr := range sr.Probes {
			probeDrops[pr.Port] += pr.Dropped
		}
	}
	for _, pm := range res.Reg.PortCounters() {
		if got := res.Counts.Arrivals[pm.Name]; got != pm.Arrivals {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("trace counted %d arrivals, metrics %d", got, pm.Arrivals)})
		}
		if got := res.Counts.Transmits[pm.Name]; got != pm.Transmissions {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("trace counted %d transmissions, metrics %d", got, pm.Transmissions)})
		}
		bufDrops := res.Counts.Drops[pm.Name] - res.Counts.FaultDrops[pm.Name] - res.Counts.SigDrops[pm.Name]
		if bufDrops != pm.DroppedPackets || pm.DroppedPackets != probeDrops[pm.Name] {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("buffer drops disagree: trace %d, metrics %d, probes %d",
					bufDrops, pm.DroppedPackets, probeDrops[pm.Name])})
		}
		if got := res.Counts.FaultDrops[pm.Name]; got != pm.FaultDrops {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("fault drops disagree: trace %d, metrics %d", got, pm.FaultDrops)})
		}
		if got := res.Counts.SigDrops[pm.Name]; got != pm.SignalingDrops {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("signaling drops disagree: trace %d, metrics %d", got, pm.SignalingDrops)})
		}
	}
	checkEngineSanity(res, rep)
}
