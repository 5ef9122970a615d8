package sched

import (
	"math"
	"slices"
	"testing"

	"leaveintime/internal/admission"
	"leaveintime/internal/network"
)

// fig6Route is the Section 4 comparison's tagged session on the Figure 6
// tandem: five T1 hops with 1 ms of propagation, each carrying the
// 32 kbit/s voice session (one 424-bit cell per 13.25 ms) and that hop's
// 1472 kbit/s cross session, the latter declaring crossXMin to the EDD
// rows.
func fig6Route(crossXMin float64) (Flow, []Hop) {
	const (
		c, gamma, cell, voice = 1536e3, 1e-3, 424, 32e3
		spacing               = 0.01325
	)
	tag := network.SessionPort{Session: 1, Rate: voice, LocalDelay: cell / voice, XMin: spacing}
	route := make([]Hop, 5)
	for i := range route {
		cross := network.SessionPort{Session: 2 + i, Rate: 1472e3, LocalDelay: 2.5e-3, XMin: crossXMin}
		route[i] = Hop{C: c, Gamma: gamma, Ports: []network.SessionPort{tag, cross}}
	}
	return Flow{Session: 1, Rate: voice, B0: cell, LMin: cell, LMax: cell}, route
}

// promise is what the row promises the flow when it is the run's only
// flow.
func promise(row Row, f Flow, route []Hop, lMax, frame float64) Promise {
	return row.Bound([]Flow{f}, [][]Hop{route}, lMax, frame)[0]
}

// TestTableBounds: every row states what it promises, and on the Fig. 6
// tagged route the promises are the paper's Section 4 numbers. Eq. 12 at
// d = L/r is PGPS (eq. 15); SCFQ pays one cell per other session a hop;
// the framing rows pay 2HT; the EDD rows' verdict follows their
// schedulability test, refused at the comparison's cross budget (a
// quarter of the Poisson mean spacing) and accepted at the mean spacing.
// Only lit states buffer bounds, and only lit, VirtualClock, Stop-and-Go
// and Jitter-EDD state a jitter bound.
func TestTableBounds(t *testing.T) {
	const crossMean, lMax, frame = 0.28804e-3, 424, 0.01325
	tag, route := fig6Route(crossMean / 4)
	got := map[string]Promise{}
	for _, row := range Table {
		if row.Bound == nil {
			t.Fatalf("%s states no Bound", row.Name)
		}
		got[row.Name] = promise(row, tag, route, lMax, frame)
	}

	lit := got["lit"].Bound
	if math.Abs(lit-72.63e-3) > 0.005e-3 {
		t.Errorf("lit: %.9f s, want 72.63 ms", lit)
	}
	for _, name := range []string{"virtualclock", "wfq", "wf2q"} {
		if b := got[name].Bound; math.Abs(b-lit) > 1e-15 {
			t.Errorf("%s: %.17g s, lit %.17g s", name, b, lit)
		}
	}
	if b, want := got["scfq"].Bound, got["wfq"].Bound+5*lMax/1536e3; math.Abs(b-want) > 1e-15 {
		t.Errorf("scfq: %.17g s, want %.17g s", b, want)
	}
	for _, name := range []string{"stopandgo", "hrr"} {
		if p := got[name]; math.Abs(p.Bound-137.5e-3) > 1e-12 || p.Origin != "2HT" {
			t.Errorf("%s: %+v, want 137.50 ms from 2HT", name, p)
		}
	}

	tagEDD, schedulable := fig6Route(crossMean)
	want := 5 * (lMax/32e3 + 1e-3)
	for _, name := range []string{"delayedd", "jitteredd"} {
		if p := got[name]; p.Bound != 0 || p.Origin != "schedulability test fails" {
			t.Errorf("%s at the comparison's budgets: %+v", name, p)
		}
		p := promise(Lookup(name), tagEDD, schedulable, lMax, frame)
		if math.Abs(p.Bound-want) > 1e-15 || p.Origin != "sum of local delays" {
			t.Errorf("%s at the mean spacing: %+v, want %.17g s", name, p, want)
		}
	}

	for _, name := range []string{"lit-approx", "fcfs", "rcsp", "lstf"} {
		if p := got[name]; p.Bound != 0 || p.Origin == "" {
			t.Errorf("%s: %+v, want no bound and its reason", name, p)
		}
	}

	// The jitter and buffer promises. The tagged session's ports carry no
	// D, so eq. 12's route is d = L/r at every hop.
	hops := make([]admission.Hop, len(route))
	for i, h := range route {
		hops[i] = admission.Hop{C: h.C, Gamma: h.Gamma, DMax: tag.LMax / tag.Rate}
	}
	eq12 := admission.Route{Hops: hops, LMax: lMax}
	for _, ctl := range []bool{false, true} {
		moded := make([]Hop, len(route))
		for i, h := range route {
			ports := slices.Clone(h.Ports)
			ports[0].JitterControl = ctl
			moded[i] = Hop{C: h.C, Gamma: h.Gamma, Ports: ports}
		}
		p := promise(Lookup("lit"), tag, moded, lMax, frame)
		delay, jitter, buffer := eq12.Commitments(tag.Rate, tag.B0, tag.LMin, ctl)
		if p.Bound != delay || p.Jitter != jitter || !slices.Equal(p.Buffer, buffer) {
			t.Errorf("lit, jitter control %v: %+v, want %v %v %v", ctl, p, delay, jitter, buffer)
		}
	}
	if _, jitter, _ := eq12.Commitments(tag.Rate, tag.B0, tag.LMin, false); got["virtualclock"].Jitter != jitter {
		t.Errorf("virtualclock jitter %.17g s, want the no-control form at d = L/r, %.17g s",
			got["virtualclock"].Jitter, jitter)
	}
	// Six frames over five hops: Golestani's 2T, and a frame for each
	// hop after the first at which aligned frames can split.
	if j := got["stopandgo"].Jitter; math.Abs(j-79.5e-3) > 1e-15 {
		t.Errorf("stopandgo jitter %.17g s, want 79.5 ms", j)
	}
	if p := promise(Lookup("jitteredd"), tagEDD, schedulable, lMax, frame); p.Jitter != schedulable[4].Ports[0].LocalDelay {
		t.Errorf("jitteredd jitter %.17g s, want the last hop's local delay", p.Jitter)
	}
	for name, p := range got {
		if name != "lit" && p.Buffer != nil {
			t.Errorf("%s states a buffer bound: %v", name, p.Buffer)
		}
		if p.Jitter != 0 && !slices.Contains([]string{"lit", "virtualclock", "stopandgo", "jitteredd"}, name) {
			t.Errorf("%s states a jitter bound: %v", name, p.Jitter)
		}
	}
}

// TestBoundPreconditions: a bound is owed only behind its row's
// preconditions, and each refusal names the one that failed.
func TestBoundPreconditions(t *testing.T) {
	const lMax, frame = 424, 0.01325
	tag, route := fig6Route(0.28804e-3)
	for _, tc := range []struct {
		row, why string
		edit     func(f *Flow, route []Hop)
	}{
		{"wfq", "no token bucket", func(f *Flow, _ []Hop) { f.B0 = 0 }},
		{"delayedd", "no token bucket", func(f *Flow, _ []Hop) { f.B0 = 0 }},
		{"virtualclock", "rates exceed capacity", func(_ *Flow, route []Hop) { route[2].C = 1e6 }},
		{"stopandgo", "not (r, T)-smooth", func(f *Flow, _ []Hop) { f.B0 = 2 * lMax }},
		{"hrr", "packets overrun its slots", func(f *Flow, _ []Hop) { f.LMin = lMax / 2 }},
		{"hrr", "frame overbooked", func(_ *Flow, route []Hop) {
			// 44 slots for 43.75 cells, and one for the voice session.
			cross := route[4].Ports[1]
			cross.Rate = 1400e3
			route[4] = Hop{C: 1435e3, Gamma: route[4].Gamma, Ports: []network.SessionPort{route[4].Ports[0], cross}}
		}},
		{"jitteredd", "bursts beyond one packet", func(f *Flow, _ []Hop) { f.B0 = 2 * lMax }},
		{"lit", "no token bucket", func(f *Flow, _ []Hop) { f.B0 = 0 }},
		{"lit", "rates exceed capacity", func(_ *Flow, route []Hop) { route[0].C = 1e6 }},
	} {
		f, r := tag, make([]Hop, len(route))
		copy(r, route)
		tc.edit(&f, r)
		if p := promise(Lookup(tc.row), f, r, lMax, frame); p.Bound != 0 || p.Jitter != 0 || p.Buffer != nil || p.Origin != tc.why {
			t.Errorf("%s: %+v, want no bound: %s", tc.row, p, tc.why)
		}
	}
}

// linkNet is flows over numbered links of capacity c without
// propagation: flow i+1 takes the links paths[i] at the given rate, its
// bucket and packets one length l. Each link's one Ports slice lists
// the flows that take it, in flow order.
func linkNet(c, l, rate float64, paths ...[]int) ([]Flow, [][]Hop) {
	var ports [][]network.SessionPort
	flows := make([]Flow, len(paths))
	for i, path := range paths {
		flows[i] = Flow{Session: i + 1, Rate: rate, B0: l, LMin: l, LMax: l}
		for _, k := range path {
			for len(ports) <= k {
				ports = append(ports, nil)
			}
			ports[k] = append(ports[k], network.SessionPort{Session: i + 1, Rate: rate})
		}
	}
	routes := make([][]Hop, len(paths))
	for i, path := range paths {
		for _, k := range path {
			routes[i] = append(routes[i], Hop{C: c, Ports: ports[k]})
		}
	}
	return flows, routes
}

// TestFCFSHandComputed pins the fcfs row's promise on one link against
// the closed form: four flows of TB(0.2C, L) make the aggregate
// TB(0.8C, 4L), whose FIFO delay bound is 4L/C plus one packet time
// L/C, and each flow's backlog bound lies between its one packet and
// the whole burst plus a packet, 5L. The busy-period form bounds the
// same link no tighter than the fluid FIFO bound.
func TestFCFSHandComputed(t *testing.T) {
	const capBps, lpkt = 1.536e6, 424.0
	one := []int{0}
	flows, routes := linkNet(capBps, lpkt, 0.8*capBps/4, one, one, one, one)
	fifo := Lookup("fcfs").Bound(flows, routes, lpkt, 0)
	wantDelay := 4*lpkt/capBps + lpkt/capBps
	for i, p := range fifo {
		if math.Abs(p.Bound-wantDelay) > 1e-12 || p.Origin != "curve propagation" {
			t.Errorf("flow %d: %+v, want delay %.12g from curve propagation", i+1, p, wantDelay)
		}
		if len(p.Buffer) != 1 {
			t.Fatalf("flow %d: want 1 hop of backlog bounds, got %d", i+1, len(p.Buffer))
		}
		if b := p.Buffer[0]; b < lpkt || b > 5*lpkt {
			t.Errorf("flow %d backlog bound %.1f bits outside [%g, %g]", i+1, b, lpkt, 5*lpkt)
		}
	}
	busy := BusyPeriod(flows, routes, lpkt)
	if busy[0].Bound == 0 || busy[0].Origin != "busy period" {
		t.Fatalf("busy period promised %+v", busy[0])
	}
	if busy[0].Bound < fifo[0].Bound-lpkt/capBps {
		t.Errorf("busy-period bound %.9f below fluid FIFO bound %.9f", busy[0].Bound, fifo[0].Bound)
	}
}

// TestFCFSExclusions: where some port cannot be bounded soundly, the
// fcfs row promises no flow anything and names why: a flow without a
// token bucket; a port holding a session that is not among the flows,
// as the Section 4 comparison's Poisson cross traffic is; routes that
// order the links cyclically; a link whose flows reach its capacity.
func TestFCFSExclusions(t *testing.T) {
	const c, l = 1.536e6, 424.0
	one := []int{0}
	for _, tc := range []struct {
		why string
		net func() ([]Flow, [][]Hop)
	}{
		{why: "no token bucket", net: func() ([]Flow, [][]Hop) {
			flows, routes := linkNet(c, l, 0.2*c, one, one, one)
			flows[1].B0 = 0
			return flows, routes
		}},
		{why: "no cross envelope", net: func() ([]Flow, [][]Hop) {
			flows, routes := linkNet(c, l, 0.2*c, one, []int{0, 1}, []int{1})
			return flows[:2], routes[:2]
		}},
		{why: "cyclic link order", net: func() ([]Flow, [][]Hop) {
			return linkNet(c, l, 0.02*c, []int{0, 1}, []int{1, 2}, []int{2, 0})
		}},
		{why: "saturated link", net: func() ([]Flow, [][]Hop) {
			return linkNet(c, l, 0.4*c, []int{0, 1}, []int{1}, []int{1})
		}},
	} {
		flows, routes := tc.net()
		for i, p := range Lookup("fcfs").Bound(flows, routes, l, 0) {
			if p.Bound != 0 || p.Jitter != 0 || p.Buffer != nil || p.Origin != tc.why {
				t.Errorf("%s: flow %d promised %+v", tc.why, i+1, p)
			}
		}
	}
}

// TestFCFSFeedForwardOrder: a port is bounded once every flow it holds
// has reached it, whatever order the flows are listed in. Flow a takes
// link 0 then link 1, b link 1 alone and x link 0 alone; listed with
// link 1's own flow b first, each flow is promised what the listing a,
// b, x promises it, to the bit, and a's promise covers both links.
func TestFCFSFeedForwardOrder(t *testing.T) {
	const c, l = 1.536e6, 424.0
	both, down, up := []int{0, 1}, []int{1}, []int{0}
	flows, routes := linkNet(c, l, 0.3*c, both, down, up)
	fwd := Lookup("fcfs").Bound(flows, routes, l, 0)
	flows, routes = linkNet(c, l, 0.3*c, down, both, up)
	rev := Lookup("fcfs").Bound(flows, routes, l, 0)
	for i, j := range []int{1, 0, 2} {
		a, b := fwd[i], rev[j]
		if a.Bound == 0 || a.Bound != b.Bound || !slices.Equal(a.Buffer, b.Buffer) || a.Origin != b.Origin {
			t.Errorf("flow %d: listed first-hop first %+v, downstream first %+v", i+1, a, b)
		}
	}
	if len(fwd[0].Buffer) != 2 || fwd[0].Bound <= fwd[2].Bound {
		t.Errorf("two-link flow promised %+v, one-link flow %+v", fwd[0], fwd[2])
	}
}
