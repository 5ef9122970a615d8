// Package network provides the packet-switching substrate of the
// simulator: server nodes with outgoing links (ports), sessions routed
// across tandems of ports, source-driven packet injection, and the
// event-driven transmission loop.
//
// The package is discipline-agnostic: every service discipline
// (Leave-in-Time in internal/core, the baselines in internal/sched)
// plugs into a Port through the Discipline interface. A Port owns the
// link state (busy/idle, capacity, propagation delay) and drives the
// discipline: it enqueues arriving packets, asks for the next eligible
// packet whenever the link is free, and schedules a wake-up when the
// discipline is holding packets that are not yet eligible
// (non-work-conserving operation).
package network

import (
	"fmt"
	"math"

	"leaveintime/internal/event"
	"leaveintime/internal/metrics"
	"leaveintime/internal/packet"
	"leaveintime/internal/sesstab"
	"leaveintime/internal/stats"
	"leaveintime/internal/trace"
	"leaveintime/internal/traffic"
)

// Discipline is the scheduling contract a Port drives. Implementations
// must be deterministic: ties in priority must be broken by arrival
// order.
type Discipline interface {
	// AddSession registers per-session state before any packet of the
	// session arrives.
	AddSession(cfg SessionPort)

	// Enqueue hands an arriving packet to the discipline at time now,
	// the packet's arrival instant at this node.
	Enqueue(p *packet.Packet, now float64)

	// Dequeue returns the packet to transmit at time now, if any queued
	// packet is eligible. The discipline must fill the packet's
	// Eligible, Deadline, Delay and DelayMax fields (when meaningful)
	// no later than Dequeue.
	Dequeue(now float64) (*packet.Packet, bool)

	// NextEligible reports the earliest future instant at which a
	// currently held packet becomes eligible. It is consulted when
	// Dequeue returns no packet; ok is false when nothing is held.
	NextEligible(now float64) (t float64, ok bool)

	// OnTransmit is invoked when the packet's last bit leaves the link,
	// at time finish. Disciplines with jitter control use it to compute
	// the holding time carried to the next node (eq. 9 for
	// Leave-in-Time); others must reset p.Hold to zero.
	OnTransmit(p *packet.Packet, finish float64)

	// Len returns the number of packets held by the discipline
	// (regulated plus eligible).
	Len() int
}

// SessionPort is the per-session configuration a discipline receives
// for one port along the session's route.
type SessionPort struct {
	// Session is the session identifier.
	Session int
	// Rate is the reserved rate r_s in bits/s.
	Rate float64
	// JitterControl selects the delay-jitter-control mode (a delay
	// regulator is assigned to the session at this node).
	JitterControl bool
	// D returns the service parameter d_{i,s} (seconds) for a packet of
	// the given length in bits. For Leave-in-Time it comes from the
	// admission control procedure; nil means d = L/rate (the
	// VirtualClock special case). D must be a pure function of the
	// length: a discipline may call it once per change of length and
	// reuse the answer.
	D func(length float64) float64
	// DMax is d_max_s at this node: the maximum of D over the session's
	// packet lengths. Ignored when D is nil (then it is LMax/rate, but
	// disciplines that need it receive it explicitly).
	DMax float64
	// LocalDelay is the per-node delay budget for deadline-based
	// baselines (Delay-EDD, Jitter-EDD). Unused by Leave-in-Time.
	LocalDelay float64
	// XMin is the minimum packet interarrival time declared to
	// Delay-EDD/Jitter-EDD admission. Unused by Leave-in-Time.
	XMin float64
}

// SessionRemover is optionally implemented by disciplines that can free
// a session's scheduling state at connection teardown.
type SessionRemover interface {
	RemoveSession(id int)
}

// SessionChecker is optionally implemented by disciplines that keep
// per-session state and can report whether a session is currently
// registered. Ports consult it on every arrival: a packet of an
// unregistered session — the registration race of a mid-run teardown,
// where a late in-flight packet lands after PurgeSession has swept the
// node — becomes a traced terminal drop with cause "purged" instead of
// a panic inside the discipline. Disciplines without per-session state
// (FCFS, Stop-and-Go) simply don't implement it. Construction-time
// validation panics (bad rates, missing budgets at AddSession) are
// unaffected.
type SessionChecker interface {
	HasSession(id int) bool
}

// Network is a simulated packet-switching network.
//
// Packet lifecycle: every packet lives in the network's pool. A session
// takes one at emission (Session.send, from the source),
// the packet flows through ports and disciplines by pointer, and it is
// released exactly once — by the sink on delivery or by the port that
// drops it at a buffer limit. Code observing packets (OnDeliver hooks,
// tracers) must not retain the pointer past the callback: the struct
// is recycled for a later emission.
type Network struct {
	Sim *event.Simulator
	// LMax is the maximum packet length allowed in the network
	// (L_MAX in the paper), in bits. It enters the holding-time and
	// bound computations.
	LMax float64

	// Tracer, when non-nil, receives every packet event (arrivals,
	// transmissions, deliveries). See internal/trace. Every trace site
	// tests it before it builds the event, so an untraced run builds
	// none.
	Tracer trace.Tracer

	ports    []*Port
	sessions []*Session
	// sessByID maps session ID -> session. It replaces the per-port
	// nextHop maps: a packet's next hop is derived from its session's
	// route and current hop index, so forwarding is a table lookup
	// instead of a map probe per hop.
	sessByID sesstab.Table[*Session]
	pool     pktPool
	metrics  *metrics.Registry
}

// schedMetricsSetter is implemented by disciplines that expose
// scheduler-level counters (regulator holds, deadline misses), wired
// as arena slots at the owning port's block base.
type schedMetricsSetter interface {
	SetMetrics(a *metrics.Arena, base metrics.Handle)
}

// EnableMetrics attaches a telemetry registry to the network: the event
// engine, the packet pool, every existing port (and every port created
// afterwards), and each port's discipline when it supports scheduler
// metrics. Counting costs one nil-check branch and an indexed add per
// instrumented site and never allocates on the packet path; it does not
// perturb event ordering, so instrumented runs are bit-identical to
// bare ones.
func (n *Network) EnableMetrics(reg *metrics.Registry) {
	n.metrics = reg
	n.Sim.SetMetrics(reg.Arena())
	n.pool.m = reg.Arena()
	for _, p := range n.ports {
		p.attachMetrics(reg)
	}
}

func (p *Port) attachMetrics(reg *metrics.Registry) {
	p.ma, p.mb = reg.NewPort(p.Name, p.C)
	if s, ok := p.Disc.(schedMetricsSetter); ok {
		s.SetMetrics(p.ma, p.mb)
	}
}

// New returns an empty network driven by sim with network-wide maximum
// packet length lMax (bits).
func New(sim *event.Simulator, lMax float64) *Network {
	if lMax <= 0 {
		panic("network: LMax must be positive")
	}
	return &Network{Sim: sim, LMax: lMax}
}

// NewPort creates a server port (one outgoing link and its scheduler).
// capacity is the link rate C in bits/s, gamma the propagation delay in
// seconds, and disc the service discipline instance dedicated to this
// port.
func (n *Network) NewPort(name string, capacity, gamma float64, disc Discipline) *Port {
	if capacity <= 0 {
		panic("network: port capacity must be positive")
	}
	p := &Port{
		net:   n,
		Name:  name,
		C:     capacity,
		Gamma: gamma,
		Disc:  disc,
	}
	// Cache the registration-check interface once so the per-arrival
	// guard is a nil check, not a type assertion per packet.
	if c, ok := disc.(SessionChecker); ok {
		p.check = c
	}
	p.SetTieBase(len(n.ports))
	// Pre-bind the port's event handlers once: the transmission-finish,
	// link-delivery and wake-up events on the per-packet path reuse
	// these closures instead of allocating a fresh one per occurrence.
	p.txFn = p.txDone
	p.linkFn = p.deliverHead
	p.wakeFn = func() { p.maybeStart(p.net.Sim.Now()) }
	if n.metrics != nil {
		p.attachMetrics(n.metrics)
	}
	n.ports = append(n.ports, p)
	return p
}

// SetTieBase pins the port identity used in the canonical ordering
// stamp of its link-delivery events. The default (creation order
// within the Network) is correct for serial runs; the shard runtime
// overrides it with the port's global link index so every shard
// count — including one — stamps identical keys. Call before any
// packet flows.
func (p *Port) SetTieBase(id int) {
	p.tieBase = 1<<63 | uint64(id)<<32
}

// Sessions returns all sessions in creation order.
func (n *Network) Sessions() []*Session { return n.sessions }

// Port is a server node's outgoing link plus its scheduler. In the
// paper's model every server node has a single outgoing link, so "port"
// and "Leave-in-Time server" coincide; the implementation allows
// several ports per physical node for general topologies.
type Port struct {
	net   *Network
	Name  string
	C     float64 // link capacity, bits/s
	Gamma float64 // propagation delay, s
	Disc  Discipline

	// Util measures the busy fraction of the link.
	Util stats.Utilization

	// Fault state (see fault.go): down marks the outgoing link failed —
	// the port keeps accepting and queueing packets but starts no
	// transmission until RestoreLink. txLost, when non-empty, is the
	// drop cause ("fault" or "purge") for the packet currently under
	// transmission: its finish event still fires but the packet is
	// dropped there instead of forwarded. down sits beside busy, which
	// maybeStart tests with it, so the two bools share one word.
	busy   bool
	down   bool
	waker  event.Event
	txLost string

	// check, when the discipline keeps per-session state, answers
	// whether a session is registered; arrivals for unregistered
	// sessions are dropped with cause "purged" instead of reaching the
	// discipline (see SessionChecker). Cached at port construction.
	check SessionChecker

	// Closure-free event plumbing: txPkt is the packet under
	// transmission (one at a time per port), inflight the FIFO of
	// packets traversing the outgoing link (same propagation delay for
	// all, so arrivals happen in departure order). Only the head of the
	// FIFO has a delivery event in the engine; deliverHead arms the
	// next one. The pre-bound handlers are created once in NewPort.
	txPkt    *packet.Packet
	inflight flightRing
	txFn     event.Handler
	linkFn   event.Handler
	wakeFn   event.Handler

	// tieBase and txSeq form the canonical ordering stamp of this
	// port's link-delivery events: (top bit | port ID << 32 | per-port
	// transmission count). Stamping deliveries with a key derived from
	// the port's identity and transmit history — rather than the
	// engine's schedule counter — makes the interleaving of same-
	// instant arrivals at a downstream node independent of how the
	// network is partitioned into shards, which is what lets a sharded
	// run (internal/shard) reproduce a serial run's event order
	// exactly. NewPort derives the ID from creation order; the shard
	// runtime overrides it with the global link index via SetTieBase.
	tieBase uint64
	txSeq   uint64

	// Buffer tracking (Figures 12-13): per-session bits currently at
	// this node, counting the packet under transmission, by session ID
	// (absent = untracked). Made by the first TrackBuffer, so a port
	// that tracks nobody pays one nil pointer.
	trackBuf *sesstab.Table[*BufferProbe]

	// HoldClamped counts eq.-9 holding times that came out negative and
	// were clamped to zero; nonzero values indicate scheduler
	// saturation (see Section 2 of the paper).
	HoldClamped int64

	// ma/mb, when attached, receive the port's telemetry counters as
	// arena slots at block base mb (see Network.EnableMetrics). qlen
	// mirrors Disc.Len() (packets enter the discipline only through
	// Enqueue and leave only through Dequeue; the purge path resyncs)
	// so the per-arrival queue high-water check costs two integer
	// operations instead of an interface call, and qhw shadows the
	// published high-water so arrivals that do not raise it skip the
	// arena access too.
	ma   *metrics.Arena
	mb   metrics.Handle
	qlen int
	qhw  int
}

// flight is one packet traversing the outgoing link: its destination
// (the next port, or the session as the exit sink) and the canonical
// ordering stamp of its delivery event (see Port.tieBase), recorded at
// transmission finish. The packet arrives at sched + Gamma.
type flight struct {
	pkt   *packet.Packet
	next  *Port
	sink  *Session
	sched float64
	tie   uint64
}

// flightRing is the link lane's FIFO: a power-of-two ring that starts
// at one slot and doubles only when every slot holds a packet on the
// wire. Popped slots are not zeroed: packets live in the pool's slabs
// anyway, and a stale entry pins a removed session at most until its
// slot is reused.
type flightRing struct {
	buf  []flight
	head int
	n    int
}

func (r *flightRing) push(x flight) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// grow doubles the ring, unwrapping it so the head lands at slot 0.
func (r *flightRing) grow() {
	buf := make([]flight, max(1, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// at returns the i-th entry from the head, i < n.
func (r *flightRing) at(i int) *flight { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// pop removes and returns the head; the ring must not be empty.
func (r *flightRing) pop() flight {
	x := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// BufferProbe records the buffer space used by one session at one
// node, sampled at packet-arrival instants as in the paper, and
// optionally enforces a finite buffer.
type BufferProbe struct {
	// Bits is the current occupancy in bits.
	Bits float64
	// Dist is the sampled distribution of occupancy in packets
	// (occupancy divided by the sampling packet's length, as in the
	// fixed-length experiments of Figs. 12-13).
	Dist stats.Discrete
	// MaxBits is the largest sampled occupancy in bits.
	MaxBits float64
	// Limit, when positive, is the session's buffer allocation at this
	// node in bits: an arriving packet that would push Bits past it is
	// dropped. Provisioning Limit at the paper's buffer bound makes
	// the session provably loss-free.
	Limit float64
	// DroppedPackets and DroppedBits count packets lost to the limit.
	DroppedPackets int64
	DroppedBits    float64
}

// TrackBuffer enables buffer-occupancy sampling for the session at this
// port and returns the probe.
func (p *Port) TrackBuffer(session int) *BufferProbe {
	probe := &BufferProbe{}
	if p.trackBuf == nil {
		p.trackBuf = new(sesstab.Table[*BufferProbe])
	}
	p.trackBuf.Put(session, probe)
	return probe
}

// probeFor returns the session's buffer probe at this port, or nil. It
// is asked twice per packet, and most ports track nobody: that answer
// is inlined, the lookup is not.
func (p *Port) probeFor(session int) *BufferProbe {
	if p.trackBuf == nil || p.trackBuf.Len() == 0 {
		return nil
	}
	return p.probe(session)
}

func (p *Port) probe(session int) *BufferProbe {
	if e := p.trackBuf.Get(session); e != nil {
		return *e
	}
	return nil
}

// LimitBuffer allocates a finite buffer of the given size (bits) to the
// session at this port; arrivals exceeding it are dropped and counted.
// It returns the probe, which also samples occupancy like TrackBuffer.
func (p *Port) LimitBuffer(session int, bits float64) *BufferProbe {
	probe := p.TrackBuffer(session)
	probe.Limit = bits
	return probe
}

// Arrive delivers a packet to this port at time now (the instant its
// last bit arrives, per the paper's convention).
func (p *Port) Arrive(pkt *packet.Packet, now float64) {
	if p.check != nil && !p.check.HasSession(pkt.Session) {
		// Registration race: the session was purged from this node while
		// the packet was still in flight toward it. Terminal drop, before
		// any probe or queue accounting touches the packet.
		p.dropUnregistered(pkt, now)
		return
	}
	if probe := p.probeFor(pkt.Session); probe != nil {
		if probe.Limit > 0 && probe.Bits+pkt.Length > probe.Limit+1e-9 {
			probe.DroppedPackets++
			probe.DroppedBits += pkt.Length
			if p.ma != nil {
				p.ma.Inc(p.mb + metrics.PortDroppedPackets)
				p.ma.AddFloat(p.mb+metrics.PortDroppedBits, pkt.Length)
			}
			// Traced before the packet is pooled: a drop is a terminal
			// event, visible to tracers like Deliver is.
			if t := p.net.Tracer; t != nil {
				t.Trace(trace.Event{Time: now, Kind: trace.Drop, Port: p.Name,
					Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop})
			}
			p.net.pool.put(pkt) // dropped: the port releases it
			return
		}
		probe.Bits += pkt.Length
		if probe.Bits > probe.MaxBits {
			probe.MaxBits = probe.Bits
		}
		// Occupancy in packets, counting this packet: the experiments
		// use fixed-length packets so this is exact; for variable
		// lengths it is occupancy normalized by the arriving length.
		probe.Dist.Add(int(math.Round(probe.Bits / pkt.Length)))
	}
	if t := p.net.Tracer; t != nil {
		t.Trace(trace.Event{Time: now, Kind: trace.Arrive, Port: p.Name,
			Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop})
	}
	p.Disc.Enqueue(pkt, now)
	p.qlen++
	if p.ma != nil {
		p.ma.Inc(p.mb + metrics.PortArrivals)
		p.ma.AddFloat(p.mb+metrics.PortArrivedBits, pkt.Length)
		if p.qlen > p.qhw {
			p.qhw = p.qlen
			p.ma.MaxUint(p.mb+metrics.PortQueueHighWater, uint64(p.qlen))
		}
	}
	p.maybeStart(now)
}

// maybeStart begins a transmission if the link is idle and a packet is
// eligible; otherwise it arms a wake-up for the next eligibility
// instant.
func (p *Port) maybeStart(now float64) {
	if p.busy || p.down {
		return
	}
	p.net.Sim.Cancel(p.waker)
	pkt, ok := p.Disc.Dequeue(now)
	if !ok {
		if t, held := p.Disc.NextEligible(now); held {
			if t < now {
				t = now
			}
			p.waker = p.net.Sim.Schedule(t, p.wakeFn)
		}
		return
	}
	p.qlen--
	p.busy = true
	p.Util.SetBusy(now, true)
	if t := p.net.Tracer; t != nil {
		t.Trace(trace.Event{Time: now, Kind: trace.TransmitStart, Port: p.Name,
			Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop,
			Eligible: pkt.Eligible, Deadline: pkt.Deadline})
	}
	finish := now + pkt.Length/p.C
	p.txPkt = pkt
	p.net.Sim.Schedule(finish, p.txFn)
}

// txDone fires when the last bit of the current transmission leaves
// the link; ports transmit one packet at a time, so the packet is
// parked in txPkt rather than captured in a per-event closure.
func (p *Port) txDone() {
	pkt := p.txPkt
	p.txPkt = nil
	p.finish(pkt)
}

func (p *Port) finish(pkt *packet.Packet) {
	now := p.net.Sim.Now()
	if cause := p.txLost; cause != "" {
		// The packet was lost mid-transmission to a link fault or purge:
		// release the link and drop the packet as a traced terminal
		// event. OnTransmit is skipped — the discipline never saw the
		// packet complete, and eq.-9 holding state must not advance for
		// a packet that was not delivered downstream.
		p.txLost = ""
		p.busy = false
		p.Util.SetBusy(now, false)
		p.dropFault(pkt, now, cause)
		p.maybeStart(now)
		return
	}
	p.Disc.OnTransmit(pkt, now)
	if pkt.Hold < 0 {
		pkt.Hold = 0
		p.HoldClamped++
	}
	if probe := p.probeFor(pkt.Session); probe != nil {
		probe.Bits -= pkt.Length
		if probe.Bits < 0 {
			probe.Bits = 0
		}
	}
	p.busy = false
	p.Util.SetBusy(now, false)
	if p.ma != nil {
		p.ma.Inc(p.mb + metrics.PortTransmissions)
		p.ma.AddFloat(p.mb+metrics.PortTransmittedBits, pkt.Length)
	}
	if t := p.net.Tracer; t != nil {
		t.Trace(trace.Event{Time: now, Kind: trace.TransmitEnd, Port: p.Name,
			Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop,
			Eligible: pkt.Eligible, Deadline: pkt.Deadline})
	}

	// The downstream hop is derived from the session's route and the
	// packet's hop index: the next port when one remains, otherwise the
	// session itself as the exit sink — or, for a non-final shard
	// segment, the Forward hook. Handing off at the transmission-finish
	// instant (not at link arrival) matters for conservative windows:
	// finish is always inside the current window, while arrival on a
	// cut link may fall past its end.
	e := p.net.sessByID.Get(pkt.Session)
	if e == nil {
		panic(fmt.Sprintf("network: no route out of port %s for session %d", p.Name, pkt.Session))
	}
	sess := *e
	p.txSeq++
	tie := p.tieBase | p.txSeq
	var next *Port
	var sink *Session
	lh, h := pkt.Hop+1, sess.hooks
	if h != nil {
		lh -= h.hopOffset
	}
	if lh < len(sess.Route) {
		next = sess.Route[lh]
		pkt.Hop++
	} else if h != nil && h.forward != nil {
		ho := Handoff{
			Session: pkt.Session, Seq: pkt.Seq, Hop: pkt.Hop + 1,
			Length: pkt.Length, SourceTime: pkt.SourceTime, Hold: pkt.Hold,
			Sched: now, Tie: tie,
		}
		p.net.pool.put(pkt)
		h.forward(ho, now, now+p.Gamma)
		p.maybeStart(now)
		return
	} else {
		sink = sess
	}
	// Transmissions on one port finish at strictly increasing instants
	// and every departure experiences the same propagation delay, so
	// link arrivals happen in departure order: a FIFO plus one
	// pre-bound handler replaces a per-packet closure. The delivery is
	// stamped with the port's canonical (identity, transmit count) tie
	// so same-instant arrivals downstream interleave in a partition-
	// independent order (see tieBase). Because the stamp is explicit, a
	// delivery's place in the firing order does not depend on when it
	// enters the engine, so only the FIFO's head is scheduled: a packet
	// behind it arrives no earlier and carries a later stamp.
	if p.inflight.n == 0 {
		p.arm(now, tie)
	}
	p.inflight.push(flight{pkt: pkt, next: next, sink: sink, sched: now, tie: tie})
	p.maybeStart(now)
}

// arm schedules the delivery of the link lane's head, stamped (sched,
// tie), at its arrival instant sched + Gamma.
func (p *Port) arm(sched float64, tie uint64) {
	p.net.Sim.ScheduleStamped(sched+p.Gamma, sched, tie, p.linkFn)
}

// deliverHead lands the oldest in-flight packet at its destination,
// after arming the delivery of the one behind it.
func (p *Port) deliverHead() {
	if p.inflight.n == 0 {
		panic(fmt.Sprintf("network: port %s link delivery with empty in-flight queue", p.Name))
	}
	f := p.inflight.pop()
	if p.inflight.n > 0 {
		h := p.inflight.at(0)
		p.arm(h.sched, h.tie)
	}
	if f.pkt == nil {
		// Lost to a link fault or purge while in flight (fault.go
		// nil-marks the entry and drops the packet); the delivery event
		// still fires to keep the event/FIFO pairing exact.
		return
	}
	if at := f.sched + p.Gamma; f.next != nil {
		f.next.Arrive(f.pkt, at)
	} else {
		f.sink.deliver(p.net, f.pkt, at)
	}
}

// Session is an established connection: a source, a route of ports, and
// end-to-end measurement state. It keeps inline what every session
// reads; a source's emission state and the rarely set hooks (a shard
// segment's hop offset among them) sit behind pointers that a
// sourceless, hookless call never fills, so such a call allocates one
// 112-byte object (DESIGN "What a standing call keeps"). Its network is
// its first port's.
type Session struct {
	ID   int
	Rate float64 // reserved rate r_s, bits/s
	// Route is the session's ports in order. Sessions may share one
	// list (system.Connect gives calls of one request over one route
	// the same list), so it is read-only.
	Route []*Port

	// Delays accumulates end-to-end packet delays: from arrival at the
	// first node to arrival at the exit point (finish at last node plus
	// its propagation delay), matching eq. (12)'s accounting.
	Delays stats.Tracker

	// Delivered counts packets that completed the route.
	Delivered int64
	// Emitted counts packets injected at the first node.
	Emitted int64

	// em is the source's emission state, nil until a source (or an
	// InitialSlack hook) is attached.
	em *emitter
	// hooks holds the delay histogram, the deliver and forward hooks and
	// a shard segment's hop offset, nil until one is set.
	hooks *sessionHooks
	// slot is the session's index in its network's sessions while it is
	// registered.
	slot int32

	// JitterControl selects delay-jitter-control mode at every node of
	// the route.
	JitterControl bool
	started       bool
	stalled       bool
}

// emitter is the emission state of a session with a source.
// Closure-free emission: one persistent handler (fn, the session's emit
// bound once in Start) re-schedules itself from inside the event, with
// the pending packet's length parked in nextLen — at most one emission
// event is outstanding per session, retained in ev so Stop can cancel
// it (a no-op once it has fired).
type emitter struct {
	// src generates the packet stream; a nil source emits nothing.
	src      traffic.Source
	fn       event.Handler
	ev       event.Event
	stopEmit float64
	seq      int64
	nextLen  float64
	// initialSlack, if non-nil, stamps the packet's carried holding
	// time at emission (see SetInitialSlack).
	initialSlack func(seq int64, t float64) float64
}

// sessionHooks are the observers few sessions set.
type sessionHooks struct {
	// hist optionally buckets end-to-end delays (MeasureHistogram).
	hist *stats.Histogram
	// onDeliver, if non-nil, observes every delivered packet.
	onDeliver func(p *packet.Packet, delay float64)
	// forward, when non-nil, marks a non-final shard segment (see
	// SetForward).
	forward func(h Handoff, finish, arrive float64)
	// hopOffset is the global hop index of Route[0] (SetHopOffset).
	hopOffset int
}

// emitState returns the session's emission state, making it on first
// use.
func (s *Session) emitState() *emitter {
	if s.em == nil {
		s.em = &emitter{}
	}
	return s.em
}

// hookState returns the session's hooks, making them on first use.
func (s *Session) hookState() *sessionHooks {
	if s.hooks == nil {
		s.hooks = &sessionHooks{}
	}
	return s.hooks
}

// SetSource attaches the packet stream the session emits from its next
// Start. It lets a caller admit the session first and draw the source's
// random stream only once the call is accepted.
func (s *Session) SetSource(src traffic.Source) { s.emitState().src = src }

// SetInitialSlack sets a hook that stamps the packet's carried holding
// time (packet.Hold) at emission: the packet enters the first node
// exactly as if an upstream regulator had handed it that much slack.
// Packets normally emit with zero Hold; the hook exists for replay
// harnesses — the UPS experiment (internal/scenarios) and the
// conformance battery's LSTF replay (internal/simcheck) use it to seed
// LSTF with per-packet slack derived from another run's recorded
// schedule. It is called once per emission with the packet's sequence
// number and emission instant.
func (s *Session) SetInitialSlack(fn func(seq int64, t float64) float64) {
	s.emitState().initialSlack = fn
}

// SetOnDeliver sets a hook that observes every delivered packet.
func (s *Session) SetOnDeliver(fn func(p *packet.Packet, delay float64)) {
	s.hookState().onDeliver = fn
}

// SetForward marks this session as a non-final segment of a sharded
// route: a packet finishing the segment's last hop is handed to fn (at
// its transmission-finish instant, with its link arrival instant
// precomputed) instead of being delivered. The packet itself is
// released to this network's pool before the call — the Handoff value
// is the complete cross-shard state.
func (s *Session) SetForward(fn func(h Handoff, finish, arrive float64)) {
	s.hookState().forward = fn
}

// SetHopOffset sets the global hop index of Route[0]. It is zero for a
// whole session and nonzero for a downstream segment of a session whose
// route was split across network shards (internal/shard): packets keep
// their global hop numbers, so traces from a sharded run merge
// byte-identically with a serial run's.
func (s *Session) SetHopOffset(off int) { s.hookState().hopOffset = off }

// net is the network the session is established in.
func (s *Session) net() *Network { return s.Route[0].net }

// Started reports whether Start has been called.
func (s *Session) Started() bool { return s.started }

// MeasureHistogram attaches an end-to-end delay histogram with the
// given bin width (seconds) and bin count, and returns it.
func (s *Session) MeasureHistogram(binWidth float64, nbins int) *stats.Histogram {
	h := stats.NewHistogram(binWidth, nbins)
	s.hookState().hist = h
	return h
}

// deliver lands a packet at the session's exit point; n is the
// session's network. It is the normal release point of the packet
// lifecycle: after the statistics and the OnDeliver hook have observed
// the packet, it returns to the network's pool (hooks must not retain
// the pointer).
func (s *Session) deliver(n *Network, p *packet.Packet, now float64) {
	if t := n.Tracer; t != nil {
		t.Trace(trace.Event{Time: now, Kind: trace.Deliver,
			Session: p.Session, Seq: p.Seq, Hop: p.Hop})
	}
	d := now - p.SourceTime
	s.Delays.Add(d)
	h := s.hooks
	if h != nil && h.hist != nil {
		h.hist.Add(d)
	}
	s.Delivered++
	if h != nil && h.onDeliver != nil {
		h.onDeliver(p, d)
	}
	n.pool.put(p)
}

// AddSession creates a session over the given route. cfgs configures
// the session at each port of the route (len(cfgs) == len(route)); it
// is what the admission control procedure produced per node. The
// session is registered with every discipline on the route but emits
// nothing until Start is called. The id keys per-session tables
// (internal/sesstab), so it must be nonnegative and issued in sequence
// or bounded where it enters the program; an id that is still
// established panics, as a negative one does. An id is free again once
// its session is removed or dropped.
func (n *Network) AddSession(id int, rate float64, jitterControl bool, route []*Port, cfgs []SessionPort, src traffic.Source) *Session {
	if len(route) == 0 {
		panic("network: empty route")
	}
	if len(cfgs) != len(route) {
		panic("network: len(cfgs) must equal len(route)")
	}
	if id < 0 {
		panic(fmt.Sprintf("network: negative session id %d", id))
	}
	s := &Session{
		ID:            id,
		Rate:          rate,
		JitterControl: jitterControl,
		Route:         route,
		slot:          int32(len(n.sessions)),
	}
	if _, ok := n.sessByID.Insert(id, s); !ok {
		panic(fmt.Sprintf("network: session id %d is already established", id))
	}
	if src != nil {
		s.SetSource(src)
	}
	for i, port := range route {
		cfg := cfgs[i]
		cfg.Session = id
		cfg.Rate = rate
		cfg.JitterControl = jitterControl
		port.Disc.AddSession(cfg)
	}
	n.sessions = append(n.sessions, s)
	return s
}

// Start schedules the session's source beginning at time t0; the source
// stops emitting after stopEmit (already-queued packets still drain).
func (s *Session) Start(t0, stopEmit float64) {
	s.started = true
	e := s.em
	if e == nil || e.src == nil {
		return
	}
	e.stopEmit = stopEmit
	// Re-Start with an emission still pending (a churned session
	// re-established before its old event fired): cancel it — the new
	// schedule below replaces it.
	n := s.net()
	n.Sim.Cancel(e.ev)
	if e.fn == nil {
		e.fn = s.emit
	}
	gap, length := e.src.Next()
	s.scheduleEmit(n, t0+gap, length)
}

// emit is the emission event's handler: it sends the pending packet and
// schedules the next emission.
func (s *Session) emit() {
	e := s.em
	n := s.net()
	t := n.Sim.Now() // == the scheduled emission instant
	if !s.stalled {
		s.send(t, e.nextLen)
	}
	gap, l := e.src.Next()
	s.scheduleEmit(n, t+gap, l)
}

// scheduleEmit schedules the emission of a packet of the given length
// at t on n, the session's network, unless the source has stopped.
func (s *Session) scheduleEmit(n *Network, t, length float64) {
	e := s.em
	if t > e.stopEmit {
		return
	}
	e.nextLen = length
	e.ev = n.Sim.Schedule(t, e.fn)
}

// send is the single entry point of the packet lifecycle: it takes a
// packet from the network's pool, stamps the per-session header fields,
// and lands it at the first node of the route.
func (s *Session) send(t, length float64) {
	e := s.em
	e.seq++
	s.Emitted++
	first := s.Route[0]
	p := first.net.pool.get()
	p.Session = s.ID
	p.Seq = e.seq
	p.Length = length
	p.SourceTime = t
	if h := s.hooks; h != nil {
		p.Hop = h.hopOffset
	}
	if e.initialSlack != nil {
		p.Hold = e.initialSlack(p.Seq, t)
	}
	first.Arrive(p, t)
}

// RemoveSession tears down a session's routing and scheduling state at
// every port of its route. The session must be fully drained: its
// source stopped and no packets of it anywhere in the network (a
// packet of a removed session arriving at a port is dropped with cause
// "purged" when the discipline tracks registration, and a packet
// finishing a hop with no route panics). Call it a grace period after
// the source's stop time. A handle that is not listed — removed
// already, its id perhaps added again since, or a session of another
// network — is left alone, and so is every port.
func (n *Network) RemoveSession(s *Session) {
	if !n.listed(s) {
		return
	}
	for _, port := range s.Route {
		if r, ok := port.Disc.(SessionRemover); ok {
			r.RemoveSession(s.ID)
		}
		if port.trackBuf != nil {
			port.trackBuf.Delete(s.ID)
		}
	}
	n.unregister(s)
}

// listed reports whether s is one of n's established sessions. A listed
// session is the one its id maps to (AddSession refuses a live id), so
// the list decides and the id table is not walked; another network's
// session is in its own list, not in n's.
func (n *Network) listed(s *Session) bool {
	return int(s.slot) < len(n.sessions) && n.sessions[s.slot] == s
}

// unregister takes a listed session out of the id table and the session
// list.
func (n *Network) unregister(s *Session) {
	n.sessByID.Delete(s.ID)
	// Swap-with-last removal: Sessions() order is part of what goldens
	// pin, so the session moved into the gap is always the last one.
	last := len(n.sessions) - 1
	moved := n.sessions[last]
	n.sessions[s.slot] = moved
	moved.slot = s.slot
	n.sessions[last] = nil
	n.sessions = n.sessions[:last]
}

// Handoff is the complete cross-shard state of a packet leaving one
// network segment for the next: everything a downstream shard needs
// to reconstruct the packet in its own pool. Per-node scheduling
// fields (Eligible, Deadline, Delay, ...) are deliberately
// absent — they are recomputed at every node, exactly as they would
// be after a serial link traversal.
type Handoff struct {
	Session int
	Seq     int64
	// Hop is the global hop index of the node the packet arrives at.
	Hop int
	// Length, SourceTime and Hold are the packet header fields that
	// survive a link traversal (Hold is eq. 9's holding time, already
	// computed by the upstream discipline's OnTransmit).
	Length     float64
	SourceTime float64
	Hold       float64

	// Sched and Tie are the engine ordering stamps of the arrival the
	// handoff replaces: the upstream transmission-finish instant and
	// the transmitting port's canonical delivery tie. Scheduling the
	// downstream injection with exactly these stamps reproduces the
	// serial run's event interleaving.
	Sched float64
	Tie   uint64
}

// InjectArrival lands a handed-off packet at a port of this network:
// it takes a fresh packet from the local pool, restores the carried
// header fields, and runs the normal arrival path. now must be the
// packet's link arrival instant (upstream finish plus the cut link's
// propagation delay) and the current simulation time.
func (n *Network) InjectArrival(at *Port, h Handoff, now float64) {
	p := n.pool.get()
	p.Session = h.Session
	p.Seq = h.Seq
	p.Hop = h.Hop
	p.Length = h.Length
	p.SourceTime = h.SourceTime
	p.Hold = h.Hold
	at.Arrive(p, now)
}
