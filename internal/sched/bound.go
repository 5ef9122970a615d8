package sched

import (
	"math"

	"leaveintime/internal/admission"
	"leaveintime/internal/calculus"
	"leaveintime/internal/network"
)

// Flow is the session a row's Bound is asked about: its network id, its
// reserved rate r (bits/s), its token-bucket depth b0 and its packet
// lengths (bits).
type Flow struct {
	Session    int
	Rate, B0   float64
	LMin, LMax float64
}

// Hop is one hop of the flow's route as a bound reads it: the link's
// capacity C (bits/s) and propagation Gamma (s), and every session the
// hop's discipline was given, the flow's own among them. The routes
// through one port carry its one Ports slice, which is how a row that
// reads more than one route (fcfs) knows the hops that are one port.
type Hop struct {
	C, Gamma float64
	Ports    []network.SessionPort
}

// port is the hop's identity: its Ports array.
func (h Hop) port() *network.SessionPort { return &h.Ports[0] }

// Promise is what a row promises one flow: an end-to-end delay bound
// (s, propagation included), a delay jitter bound (s) and a buffer
// bound at each hop of the route (bits), with the promise's origin; or
// a zero Bound and the reason none is owed. A zero Jitter or a nil
// Buffer is a bound the row's source does not state.
type Promise struct {
	Bound  float64
	Jitter float64
	Buffer []float64
	Origin string
}

// bound is a promise to one flow: the flow, its route, the network's
// L_MAX and the framing disciplines' frame.
type bound = func(f Flow, route []Hop, lMax, frame float64) Promise

// promises is the type of Row.Bound: every flow of a run with its
// route, and one promise per flow.
type promises = func(flows []Flow, routes [][]Hop, lMax, frame float64) []Promise

// each is the Bound of a row whose promise to a flow reads that flow's
// route alone.
func each(b bound) promises {
	return func(flows []Flow, routes [][]Hop, lMax, frame float64) []Promise {
		ps := make([]Promise, len(flows))
		for i, f := range flows {
			ps[i] = b(f, routes[i], lMax, frame)
		}
		return ps
	}
}

// none is the bound of a row that promises no delay.
func none(reason string) bound {
	return func(Flow, []Hop, float64, float64) Promise { return Promise{Origin: reason} }
}

// owed is a bound behind the preconditions every bound of the table
// shares: each starts from the flow's token bucket, and each assumes no
// hop reserves more than its link carries. The sum is allowed rounding
// crumbs, since the admission rules compare exact sums.
func owed(b bound) bound {
	return func(f Flow, route []Hop, lMax, frame float64) Promise {
		if f.B0 <= 0 {
			return Promise{Origin: "no token bucket"}
		}
		for _, h := range route {
			var sum float64
			for _, p := range h.Ports {
				sum += p.Rate
			}
			if sum > h.C*(1+1e-12) {
				return Promise{Origin: "rates exceed capacity"}
			}
		}
		return b(f, route, lMax, frame)
	}
}

// Own is the port of the flow with network id session at the hop.
func (h Hop) Own(session int) network.SessionPort {
	for _, p := range h.Ports {
		if p.Session == session {
			return p
		}
	}
	panic("sched: flow not registered at its hop")
}

// eq12 is the paper's Section 2 commitments (eq. 12, ineq. 17 and its
// no-control form, the Section 3.3 buffer bounds), computed by
// admission.Route.Commitments. For Leave-in-Time (fromPorts) d at each
// hop is the port's DMax with alpha from its D at the final hop, or L/r
// when the port has no D, and the jitter and buffer bounds are those of
// the mode the final hop's port runs. VirtualClock's stamp is d = L/r
// whatever the port carries, and it has no regulator: its promise is
// the delay and the no-control jitter at d = L/r.
func eq12(fromPorts bool, origin string) bound {
	return owed(func(f Flow, route []Hop, lMax, _ float64) Promise {
		r := admission.Route{Hops: make([]admission.Hop, len(route)), LMax: lMax}
		for i, h := range route {
			d, p := f.LMax/f.Rate, h.Own(f.Session)
			if fromPorts && p.D != nil {
				d = p.DMax
				if i == len(route)-1 {
					r.Alpha = math.Max(p.D(f.LMin)-f.LMin/f.Rate, p.D(f.LMax)-f.LMax/f.Rate)
				}
			}
			r.Hops[i] = admission.Hop{C: h.C, Gamma: h.Gamma, DMax: d}
		}
		jitterControl := fromPorts && route[len(route)-1].Own(f.Session).JitterControl
		p := Promise{Origin: origin}
		p.Bound, p.Jitter, p.Buffer = r.Commitments(f.Rate, f.B0, f.LMin, jitterControl)
		if !fromPorts {
			p.Buffer = nil
		}
		return p
	})
}

// pgpsBound is Parekh and Gallager's bound for a rate-proportional
// PGPS session over its route:
//
//	D <= b0/r + (N-1)*L/r + sum_n (L_MAX/C_n + Gamma_n).
//
// It is derived apart from eq. 12: the paper's eq. 15 shows the two
// equal at d = L/r, and TestPGPSEquality compares them.
func pgpsBound(f Flow, route []Hop, lMax float64) float64 {
	d := f.B0 / f.Rate
	d += float64(len(route)-1) * f.LMax / f.Rate
	for _, h := range route {
		d += lMax/h.C + h.Gamma
	}
	return d
}

var pgps = owed(func(f Flow, route []Hop, lMax, _ float64) Promise {
	return Promise{Bound: pgpsBound(f, route, lMax), Origin: "PGPS = eq. 15"}
})

// scfq is PGPS plus one maximum packet of every other session at every
// hop: SCFQ's self-clocked virtual time lets each of them in ahead once.
var scfq = owed(func(f Flow, route []Hop, lMax, _ float64) Promise {
	d := pgpsBound(f, route, lMax)
	for _, h := range route {
		d += float64(len(h.Ports)-1) * lMax / h.C
	}
	return Promise{Bound: d, Origin: "PGPS + (N-1)L_MAX/C"}
})

// framed is the framing disciplines' 2HT plus propagation: a packet
// waits out the rest of its arrival frame and leaves within the next,
// at each of H hops, provided fits accepts the flow at every hop.
//
// With jitter, the row also promises a jitter bound of (H+1)T, on the
// footing 2HT stands on: each packet leaves in the frame it becomes
// eligible in. Golestani maps each arriving frame onto one departing
// frame, so a packet's delay varies only with where it entered its
// first frame and left its last: 2T. This code's frames are aligned
// network-wide, so the packets one frame sends can arrive over a frame
// boundary downstream and leave a frame apart: each hop after the first
// can add one frame. On one hop it is Golestani's 2T.
func framed(fits func(f Flow, h Hop, lMax, frame float64) string, jitter bool) bound {
	return owed(func(f Flow, route []Hop, lMax, frame float64) Promise {
		d := 2 * float64(len(route)) * frame
		for _, h := range route {
			if why := fits(f, h, lMax, frame); why != "" {
				return Promise{Origin: why}
			}
			d += h.Gamma
		}
		p := Promise{Bound: d, Origin: "2HT"}
		if jitter {
			p.Jitter = float64(len(route)+1) * frame
		}
		return p
	})
}

// stopAndGoFits: Stop-and-Go's frame carries r*T of the flow, so the
// flow's bucket must not hold more than one frame's share.
func stopAndGoFits(f Flow, _ Hop, _, frame float64) string {
	if f.B0 > f.Rate*frame {
		return "not (r, T)-smooth"
	}
	return ""
}

// hrrFits: HRR grants a session whole packets, ceil(r*T/L_MAX) slots a
// frame (HRR.AddSession), so the flow's burst and its packets per frame
// must fit its slots, and every session's slots must fit the frame.
func hrrFits(f Flow, h Hop, lMax, frame float64) string {
	slots := func(rate float64) float64 { return max(1, math.Ceil(rate*frame/lMax)) }
	room := slots(f.Rate) * f.LMin
	if f.B0 > room || f.Rate*frame > room {
		return "packets overrun its slots"
	}
	var need float64
	for _, p := range h.Ports {
		need += slots(p.Rate) * lMax
	}
	if need > h.C*frame {
		return "frame overbooked"
	}
	return ""
}

// edd is the EDD rows' sum of local delays and propagation. It holds
// when the flow's source spaces its packets (a bucket of one packet) and
// the row's own schedulability test accepts every hop's sessions, each
// taken at L_MAX since a port does not carry a session's packet length.
// With jitter, the row's final regulator holds each packet to its
// expected arrival, so it leaves within the final hop's local delay of
// it: Jitter-EDD's jitter bound.
func edd(jitter bool) bound {
	return owed(func(f Flow, route []Hop, lMax, _ float64) Promise {
		if f.B0 > f.LMin {
			return Promise{Origin: "bursts beyond one packet"}
		}
		p := Promise{Origin: "sum of local delays"}
		for _, h := range route {
			adm := NewEDDAdmission(h.C, lMax)
			for _, q := range h.Ports {
				if adm.Admit(q.Session, q.XMin, lMax, q.LocalDelay) != nil {
					return Promise{Origin: "schedulability test fails"}
				}
			}
			p.Bound += h.Own(f.Session).LocalDelay + h.Gamma
		}
		if jitter {
			p.Jitter = route[len(route)-1].Own(f.Session).LocalDelay
		}
		return p
	})
}

// cruz is Cruz's FCFS promise (the paper's refs. [2, 3]), the one
// promise that reads every flow sharing a port with the flow: each
// flow's token bucket (rate, b0) is propagated as a
// piecewise-linear arrival curve, hop by hop. Each port sums its flows'
// curves, in flow order, into an aggregate and bounds its delay (FIFO,
// or with busy the length of its busy period, which bounds any
// work-conserving discipline); under FIFO it also bounds each flow's
// backlog at the port from the leftover service the others leave it
// (Wildberger, Hamscher and Schmitt). A flow leaves a port delayed by
// the port's bound and no faster than its wire carries, one packet
// plus the link's rate, so from the second hop on the curves have
// several segments. A port is processed once every flow it holds has
// reached it. A flow's promise is the sum of its ports' bounds and
// propagation, with its backlog bounds as its per-hop buffer bounds.
// DelayBound and FlowBacklogBound carry the packetization terms, and a
// source's bucket holds at least one packet, so a whole packet's
// instantaneous arrival lies inside its curve.
//
// Where the analysis cannot bound every port soundly it promises every
// flow nothing, for one of four reasons: some flow has no token bucket;
// a port holds a session that is not among the flows, whose curve is
// unknown; the routes order the ports cyclically, so no port has all
// its upstream curves first; or a port's aggregate rate reaches its
// capacity (the admission rules allow rounding crumbs past it), so its
// bound and every curve downstream of it are unbounded.
func cruz(flows []Flow, routes [][]Hop, lMax float64, busy bool) []Promise {
	ps := make([]Promise, len(flows))
	unbounded := func(reason string) []Promise {
		for i := range ps {
			ps[i] = Promise{Origin: reason}
		}
		return ps
	}
	held := make(map[int]bool, len(flows))
	for _, f := range flows {
		if f.B0 <= 0 {
			return unbounded("no token bucket")
		}
		held[f.Session] = true
	}

	// Each port with the flows it holds, in flow order, and where on
	// their routes they meet it.
	type visit struct{ flow, hop int }
	type port struct {
		Hop
		visits []visit
	}
	var ports []port
	index := map[*network.SessionPort]int{}
	for i, route := range routes {
		for n, h := range route {
			k, ok := index[h.port()]
			if !ok {
				for _, p := range h.Ports {
					if !held[p.Session] {
						return unbounded("no cross envelope")
					}
				}
				k = len(ports)
				index[h.port()] = k
				ports = append(ports, port{Hop: h})
			}
			ports[k].visits = append(ports[k].visits, visit{i, n})
		}
	}
	// A port is ready when each of its flows is next to visit it; once
	// processed it never is again.
	next := make([]int, len(flows))
	order := make([]int, 0, len(ports))
	for progress := true; progress; {
		progress = false
		for k, pt := range ports {
			ready := true
			for _, v := range pt.visits {
				ready = ready && next[v.flow] == v.hop
			}
			if ready {
				for _, v := range pt.visits {
					next[v.flow]++
				}
				order, progress = append(order, k), true
			}
		}
	}
	if len(order) < len(ports) {
		return unbounded("cyclic link order")
	}

	cur := make([]calculus.Curve, len(flows))
	for i, f := range flows {
		cur[i] = calculus.TokenBucket(f.Rate, f.B0)
		ps[i] = Promise{Origin: "busy period"}
		if !busy {
			ps[i] = Promise{Origin: "curve propagation", Buffer: make([]float64, len(routes[i]))}
		}
	}
	var ws calculus.Ws
	for _, k := range order {
		pt := ports[k]
		srv := calculus.FCFSServer{C: pt.C, LMax: lMax}
		var agg calculus.Curve
		for _, v := range pt.visits {
			agg = calculus.Add(agg, cur[v.flow])
		}
		var d float64
		var err error
		if busy {
			d, err = calculus.BusyPeriodBound(agg, pt.C)
		} else {
			d, err = srv.DelayBound(agg)
		}
		if err != nil {
			return unbounded("saturated link")
		}
		if !busy {
			for _, v := range pt.visits {
				var ax calculus.Curve
				for _, u := range pt.visits {
					if u.flow != v.flow {
						ax = calculus.Add(ax, cur[u.flow])
					}
				}
				if ps[v.flow].Buffer[v.hop], err = srv.FlowBacklogBound(&ws, cur[v.flow], ax); err != nil {
					return unbounded("saturated link")
				}
			}
		}
		for _, v := range pt.visits {
			ps[v.flow].Bound += d + pt.Gamma
			cur[v.flow] = calculus.Min(cur[v.flow].Delayed(d), calculus.TokenBucket(pt.C, flows[v.flow].LMax))
		}
	}
	return ps
}

// fifo is the fcfs row's promise: cruz under FIFO.
func fifo(flows []Flow, routes [][]Hop, lMax, _ float64) []Promise {
	return cruz(flows, routes, lMax, false)
}

// BusyPeriod is cruz's busy-period form: each flow's delay bound under
// any work-conserving discipline at every port, the class aggregate's
// second promise when no session is under jitter control.
func BusyPeriod(flows []Flow, routes [][]Hop, lMax float64) []Promise {
	return cruz(flows, routes, lMax, true)
}
