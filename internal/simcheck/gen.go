package simcheck

import (
	"fmt"

	"leaveintime/internal/faults"
	"leaveintime/internal/rng"
)

// Generate derives a random-but-valid scenario from a seed. Candidate
// sessions are pushed through the real admission controllers; rejected
// candidates are skipped (the rejection itself exercises the
// procedures), so every session in the result was genuinely admitted.
// The function is a pure function of the seed: the same seed always
// yields the same scenario.
func Generate(seed uint64) Scenario {
	r := rng.New(seed)
	sc := Scenario{Seed: seed}
	sc.LMax = 400 + float64(r.Intn(7))*100 // 400..1000 bits

	genTopology(&sc, r)
	genAdmissionConfig(&sc, r)
	genSessions(&sc, r)
	genDuration(&sc, r)
	return sc
}

// churnSeedSalt decorrelates the fault-plan stream from the scenario
// stream: GenerateChurn(seed) derives the identical base scenario as
// Generate(seed) and draws the chaos plan from an independent rng, so
// every churn seed has a fault-free twin with the same topology,
// sessions and traffic.
const churnSeedSalt = 0x5851f42d4c957f2d

// GenerateChurn is Generate plus a deterministic chaos plan: link and
// node outage windows, source stalls, and churn (mid-run release and
// re-SETUP) on up to half of the admitted sessions. Like Generate it
// is a pure function of the seed.
func GenerateChurn(seed uint64) Scenario {
	sc := Generate(seed)
	in := faults.Input{Duration: sc.Duration}
	seenNode := make(map[string]bool)
	for _, l := range sc.Topology.Links {
		in.Ports = append(in.Ports, l.From+"->"+l.To)
		if !seenNode[l.From] {
			seenNode[l.From] = true
			in.Nodes = append(in.Nodes, l.From)
		}
	}
	for _, s := range sc.Sessions {
		in.Sessions = append(in.Sessions, s.ID)
	}
	sc.Faults = faults.Generate(seed^churnSeedSalt, in)
	return sc
}

// genTopology builds a tandem (1-8 hops), a cross (a tandem plus the
// single-hop entry points the paper's CROSS scenario uses), or a tree
// (leaf fan-in through two stages plus a tandem tail). Capacities are
// heterogeneous so per-hop terms of the bounds differ.
func genTopology(sc *Scenario, r *rng.Rand) {
	cap := func() float64 { return 0.5e6 + 1.5e6*r.Float64() }
	gamma := func() float64 { return 1e-4 + 9e-4*r.Float64() }
	add := func(from, to string) {
		sc.Topology.Links = append(sc.Topology.Links,
			LinkDef{From: from, To: to, Capacity: cap(), Gamma: gamma()})
	}
	switch r.Intn(3) {
	case 0:
		sc.Topology.Kind = "tandem"
		hops := 1 + r.Intn(8)
		for i := 0; i < hops; i++ {
			add(node(i), node(i+1))
		}
	case 1:
		sc.Topology.Kind = "cross"
		hops := 2 + r.Intn(6)
		for i := 0; i < hops; i++ {
			add(node(i), node(i+1))
		}
	default:
		sc.Topology.Kind = "tree"
		// Four leaves into two mid nodes into a root, then a short
		// tandem tail.
		add("l0", "m0")
		add("l1", "m0")
		add("l2", "m1")
		add("l3", "m1")
		add("m0", "r0")
		add("m1", "r0")
		tail := 1 + r.Intn(3)
		prev := "r0"
		for i := 1; i <= tail; i++ {
			n := fmt.Sprintf("t%d", i)
			add(prev, n)
			prev = n
		}
	}
}

func node(i int) string { return fmt.Sprintf("n%d", i) }

// genAdmissionConfig picks the procedure and, for procedures 1 and 2,
// a class hierarchy. A quarter of the scenarios are the paper's
// exactness corner (procedure 1, one class, no jitter control) where
// LiT must equal VirtualClock bit for bit.
func genAdmissionConfig(sc *Scenario, r *rng.Rand) {
	minCap := sc.Topology.Links[0].Capacity
	for _, l := range sc.Topology.Links {
		if l.Capacity < minCap {
			minCap = l.Capacity
		}
	}
	if r.Intn(4) == 0 {
		sc.Special = true
		sc.Proc = 1
		sc.Classes = []ClassDef{{RFrac: 1, Sigma: 1}}
		return
	}
	sc.Proc = 1 + r.Intn(3)
	if sc.Proc == 3 {
		return
	}
	nClasses := 1 + r.Intn(3)
	// The sigma budget bounds how many sessions fit a class
	// (rule 1.2/2.2 tests sum LMax/C against sigma); a handful of
	// maximum-length packets per class keeps both accepts and rejects
	// reachable.
	base := (4 + 8*r.Float64()) * sc.LMax / minCap
	for k := 1; k <= nClasses; k++ {
		frac := float64(k) / float64(nClasses)
		if k == nClasses {
			frac = 1 // R_P = C, required by procedures 1 and 2
		}
		sc.Classes = append(sc.Classes, ClassDef{RFrac: frac, Sigma: base * float64(k)})
	}
}

// genSessions proposes candidate sessions and keeps the ones the real
// admission controllers accept. Controllers are per link; a session
// must be admitted at every hop of its route or it is skipped (and the
// controllers are rolled back, which Admit's all-or-nothing failure
// already guarantees per hop — partial acceptances are removed).
func genSessions(sc *Scenario, r *rng.Rand) {
	g := scenarioGraph(sc)
	adm := newAdmitters(sc)
	candidates := 3 + r.Intn(8)
	id := 0
	for c := 0; c < candidates; c++ {
		def, ok := genCandidate(sc, r, id+1)
		if !ok {
			continue
		}
		links, err := g.RouteLinks(def.From, def.To)
		if err != nil {
			continue
		}
		minCap := links[0].Capacity
		for _, l := range links {
			if l.Capacity < minCap {
				minCap = l.Capacity
			}
		}
		def.Rate = (0.04 + 0.2*r.Float64()) * minCap
		genSource(sc, &def, r)
		if _, err := adm.establish(sc, links, def); err == nil {
			id++
			def.ID = id
			def.LimitBuffers = id%2 == 0
			sc.Sessions = append(sc.Sessions, def)
		}
	}
	if len(sc.Sessions) > 0 {
		return
	}
	// Nothing was admitted (tiny sigma budgets can do that): fall back
	// to one conservative CBR session on the first link so every seed
	// runs traffic.
	l := sc.Topology.Links[0]
	def := SessionDef{
		ID: 1, From: l.From, To: l.To,
		Rate:  0.05 * l.Capacity,
		Class: 1,
		LMin:  sc.LMax, LMax: sc.LMax, Burst: sc.LMax,
		Source: SourceDef{Kind: "cbr", Seed: r.Uint64()},
	}
	if sc.Proc == 3 {
		def.D = 2 * def.LMax / def.Rate
	}
	links, _ := g.RouteLinks(def.From, def.To)
	if _, err := adm.establish(sc, links, def); err == nil {
		sc.Sessions = append(sc.Sessions, def)
	}
}

// genCandidate draws a candidate's endpoints and shape-independent
// fields. Rates and sources are filled in after the route (and its
// minimum capacity) is known.
func genCandidate(sc *Scenario, r *rng.Rand, id int) (SessionDef, bool) {
	def := SessionDef{ID: id}
	switch sc.Topology.Kind {
	case "tandem":
		hops := len(sc.Topology.Links)
		e := r.Intn(hops)
		x := e + 1 + r.Intn(hops-e)
		def.From, def.To = node(e), node(x)
	case "cross":
		hops := len(sc.Topology.Links)
		if r.Intn(2) == 0 {
			def.From, def.To = node(0), node(hops) // the tagged full path
		} else {
			e := r.Intn(hops) // single-hop cross traffic
			def.From, def.To = node(e), node(e+1)
		}
	default: // tree
		leaves := []string{"l0", "l1", "l2", "l3", "m0", "m1"}
		def.From = leaves[r.Intn(len(leaves))]
		def.To = "r0"
		// Sometimes continue down the tail.
		for _, l := range sc.Topology.Links {
			if l.From == def.To && r.Intn(2) == 0 {
				def.To = l.To
			}
		}
	}
	if !sc.Special {
		def.JitterCtrl = r.Intn(5) < 2
	}
	if sc.Proc != 3 {
		def.Class = 1 + r.Intn(len(sc.Classes))
	}
	return def, true
}

// genSource fills the candidate's packet-length envelope, token bucket
// and source parameters; it runs after Rate is known. Lengths stay
// within the network-wide L_MAX.
func genSource(sc *Scenario, def *SessionDef, r *rng.Rand) {
	kind := []string{"cbr", "onoff", "poisson", "varlen"}[r.Intn(4)]
	length := (0.4 + 0.6*r.Float64()) * sc.LMax
	def.Source = SourceDef{Kind: kind, Seed: r.Uint64()}
	switch kind {
	case "cbr":
		def.LMin, def.LMax, def.Burst = length, length, length
	case "onoff":
		def.LMin, def.LMax, def.Burst = length, length, length
		t := length / def.Rate
		def.Source.MeanOn = t * (2 + 10*r.Float64())
		def.Source.MeanOff = t * 20 * r.Float64()
	case "poisson":
		def.LMin, def.LMax = length, length
		def.Burst = length * float64(1+r.Intn(4))
		def.Source.MeanGap = length / def.Rate * (0.6 + 0.8*r.Float64())
	case "varlen":
		def.LMax = length
		def.LMin = length * (0.3 + 0.3*r.Float64())
		def.Burst = length * float64(1+r.Intn(4))
		def.Source.MeanGap = length / def.Rate * (0.6 + 0.8*r.Float64())
	}
	if def.D == 0 {
		def.D = def.LMax / def.Rate * (1 + r.Float64()) // procedure 3 only
	}
}

// genDuration sizes the run so the slowest session still emits a
// meaningful number of packets, capped to keep a seed cheap.
func genDuration(sc *Scenario, r *rng.Rand) {
	d := 0.3 + 0.9*r.Float64()
	for _, s := range sc.Sessions {
		if need := 25 * s.LMax / s.Rate; need > d {
			d = need
		}
	}
	if d > 3 {
		d = 3
	}
	sc.Duration = d
}
