package network

import (
	"leaveintime/internal/metrics"
	"leaveintime/internal/packet"
	"leaveintime/internal/trace"
)

// This file is the network's fault surface: link outages, mid-run
// session purges, and signaling-message loss accounting. All of it is
// branch-only on fault-free runs — a network on which none of these
// methods are called behaves bit-identically to one built before they
// existed.

// SessionPurger is implemented by disciplines that can evict a
// session's queued packets mid-run (a teardown while traffic is still
// in the network). PurgeSession must remove every packet of the
// session currently held by the discipline — regulated or eligible —
// invoking drop exactly once per removed packet, and must leave the
// discipline ready to accept the same session ID again via AddSession
// (a churned session re-establishing). The relative service order of
// all remaining packets must be unchanged, so a purge on a fault-free
// port is impossible to observe.
type SessionPurger interface {
	PurgeSession(id int, drop func(*packet.Packet))
}

// LinkDown reports whether the port's outgoing link is currently down.
func (p *Port) LinkDown() bool { return p.down }

// FailLink takes the port's outgoing link down at the current
// simulated time. Packets in flight on the link are lost: each is
// traced as a terminal Drop with cause "fault" and returned to the
// pool. A packet under transmission is also lost — its transmission-
// finish event still fires (keeping the busy/idle bookkeeping exact)
// but the packet is dropped there instead of being forwarded. Arriving
// packets are not dropped: they queue at the discipline and wait out
// the outage, so a fault converts to delay for traffic behind it and
// to loss only for traffic already on the wire.
func (p *Port) FailLink() {
	if p.down {
		return
	}
	p.down = true
	if m := p.net.metrics; m != nil {
		m.Arena().Inc(metrics.HFaultLinkDowns)
	}
	now := p.net.Sim.Now()
	// Lose everything on the wire. The flight entries stay in the FIFO
	// (the head's delivery event is already scheduled and each later
	// one is armed as its predecessor fires); nil-marking keeps the
	// event/entry pairing intact and deliverHead skips them.
	for i := 0; i < p.inflight.n; i++ {
		if f := p.inflight.at(i); f.pkt != nil {
			pkt := f.pkt
			f.pkt = nil
			p.dropFault(pkt, now, causeFault)
		}
	}
	if p.txPkt != nil {
		p.txLost = causeFault
	}
}

// RestoreLink brings the link back up and restarts service.
func (p *Port) RestoreLink() {
	if !p.down {
		return
	}
	p.down = false
	if m := p.net.metrics; m != nil {
		m.Arena().Inc(metrics.HFaultLinkUps)
	}
	p.maybeStart(p.net.Sim.Now())
}

const (
	causeFault = "fault"
	causePurge = "purge"
	// causePurged marks the registration race: a packet arriving at a
	// port after PurgeSession already swept its session from the
	// discipline there (distinct from "purge", which marks packets the
	// purge itself evicted).
	causePurged = "purged"
)

// dropUnregistered terminates a packet that arrived for a session the
// port's discipline no longer knows: trace, count, release. Unlike
// dropFault the packet was never accepted at this port, so there is no
// buffer-probe occupancy to return.
func (p *Port) dropUnregistered(pkt *packet.Packet, now float64) {
	if p.ma != nil {
		p.ma.Inc(p.mb + metrics.PortFaultDrops)
		p.ma.AddFloat(p.mb+metrics.PortFaultDroppedBits, pkt.Length)
	}
	if m := p.net.metrics; m != nil {
		m.Arena().Inc(metrics.HFaultPurgeDrops)
	}
	if t := p.net.Tracer; t != nil {
		t.Trace(trace.Event{Time: now, Kind: trace.Drop, Port: p.Name,
			Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop, Cause: causePurged})
	}
	p.net.pool.put(pkt)
}

// dropFault terminates a packet lost to a fault or purge: trace, count,
// release. The packet has already been accepted at this port, so its
// buffer-probe occupancy (if tracked) is returned too.
func (p *Port) dropFault(pkt *packet.Packet, now float64, cause string) {
	if probe := p.probeFor(pkt.Session); probe != nil {
		probe.Bits -= pkt.Length
		if probe.Bits < 0 {
			probe.Bits = 0
		}
	}
	if p.ma != nil {
		p.ma.Inc(p.mb + metrics.PortFaultDrops)
		p.ma.AddFloat(p.mb+metrics.PortFaultDroppedBits, pkt.Length)
	}
	if m := p.net.metrics; m != nil {
		if cause == causePurge {
			m.Arena().Inc(metrics.HFaultPurgeDrops)
		} else {
			m.Arena().Inc(metrics.HFaultInFlightDrops)
		}
	}
	if t := p.net.Tracer; t != nil {
		t.Trace(trace.Event{Time: now, Kind: trace.Drop, Port: p.Name,
			Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop, Cause: cause})
	}
	p.net.pool.put(pkt)
}

// PurgeSession removes one session's packets and routing state from
// this port mid-run: queued packets are evicted from the discipline
// (which must implement SessionPurger when any could be present),
// packets of the session in flight on the outgoing link are lost, and
// a packet of the session under transmission is dropped at its finish.
// Every removed packet is traced as a terminal Drop with cause "purge".
// It is the per-node action of a signaled teardown: by the time the
// RELEASE message has passed this node, no packet of the session can
// arrive here again (upstream nodes were purged first and the source
// is stopped), so the routing entry is freed too.
func (p *Port) PurgeSession(id int) {
	now := p.net.Sim.Now()
	if sp, ok := p.Disc.(SessionPurger); ok {
		sp.PurgeSession(id, func(pkt *packet.Packet) {
			p.dropFault(pkt, now, causePurge)
		})
	} else if r, ok := p.Disc.(SessionRemover); ok {
		r.RemoveSession(id)
	}
	// The purge evicted queued packets behind the port's back: resync
	// the mirrored queue length (the only such path; see Port.qlen).
	p.qlen = p.Disc.Len()
	for i := 0; i < p.inflight.n; i++ {
		if f := p.inflight.at(i); f.pkt != nil && f.pkt.Session == id {
			pkt := f.pkt
			f.pkt = nil
			p.dropFault(pkt, now, causePurge)
		}
	}
	if p.txPkt != nil && p.txPkt.Session == id {
		p.txLost = causePurge
	}
	if p.trackBuf != nil {
		p.trackBuf.Delete(id)
	}
	if m := p.net.metrics; m != nil {
		m.Arena().Inc(metrics.HFaultSessionsPurged)
	}
}

// NoteSignalingLoss records a signaling message (SETUP, ACCEPT, REJECT
// or RELEASE) lost on this port's link: a terminal Drop trace event
// with the message kind as cause and Seq 0, mirrored into the port and
// fault counters so trace/metrics agreement holds under faults.
func (p *Port) NoteSignalingLoss(kind string, session, hop int) {
	if p.ma != nil {
		p.ma.Inc(p.mb + metrics.PortSignalingDrops)
	}
	if m := p.net.metrics; m != nil {
		m.Arena().Inc(metrics.HFaultSignalingDrops)
	}
	if t := p.net.Tracer; t != nil {
		t.Trace(trace.Event{Time: p.net.Sim.Now(), Kind: trace.Drop, Port: p.Name,
			Session: session, Hop: hop, Cause: kind})
	}
}

// DropSession removes a session from the network mid-run: its source
// is stopped, every port of its route is purged (in route order), and
// the session is unregistered. Unlike Network.RemoveSession it does
// not require the session to be drained — queued and in-flight packets
// are discarded as traced "purge" drops. Admission-level reservations
// are the caller's concern (release them through the signaling layer
// or the admission controllers directly). As with RemoveSession, a
// handle that is not listed is left alone, and so is every port.
func (n *Network) DropSession(s *Session) {
	if !n.listed(s) {
		return
	}
	s.Stop()
	for _, port := range s.Route {
		port.PurgeSession(s.ID)
	}
	n.unregister(s)
}

// Stop halts the session's source immediately: the pending emission
// event (if any) is canceled and no further packets are emitted.
// Already-emitted packets are unaffected. Stop is idempotent; a
// stopped session can be restarted with Start.
func (s *Session) Stop() {
	if e := s.em; e != nil {
		e.stopEmit = 0
		s.net().Sim.Cancel(e.ev)
	}
}

// SetStalled pauses (true) or resumes (false) the session's source
// without losing its rhythm: while stalled, emission instants come and
// go as scheduled but no packet is injected — modeling a source that
// goes silent and later resumes its usual pattern. The draw sequence
// from the source is unchanged, so stalling is invisible to any other
// session's packet timing.
func (s *Session) SetStalled(on bool) {
	if on && !s.stalled {
		if m := s.net().metrics; m != nil {
			m.Arena().Inc(metrics.HFaultStalls)
		}
	}
	s.stalled = on
}
