package simcheck

import (
	"fmt"

	"leaveintime/internal/config"
	"leaveintime/internal/faults"
	"leaveintime/internal/rng"
	"leaveintime/internal/system"
)

// Generate derives a random-but-valid scenario from a seed. Candidate
// sessions are pushed through the runner's admission control; rejected
// candidates are skipped (the rejection itself exercises the
// procedures), so every session in the result was genuinely admitted.
// The function is a pure function of the seed: the same seed always
// yields the same scenario.
func Generate(seed uint64) Case {
	r := rng.New(seed)
	sc := Case{Scenario: &config.Scenario{Seed: seed}}
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
func GenerateChurn(seed uint64) Case {
	sc := Generate(seed)
	in := faults.Input{Duration: sc.Duration}
	seenNode := make(map[string]bool)
	for i := range sc.Servers {
		sv := &sc.Servers[i]
		in.Ports = append(in.Ports, sv.Name)
		if !seenNode[sv.From] {
			seenNode[sv.From] = true
			in.Nodes = append(in.Nodes, sv.From)
		}
	}
	for i := range sc.Sessions {
		in.Sessions = append(in.Sessions, sc.Sessions[i].ID)
	}
	sc.Faults = faults.Generate(seed^churnSeedSalt, in)
	return sc
}

// linkName is the name the generator gives the server on from -> to;
// it is the document's own default, written out.
func linkName(from, to string) string { return from + "->" + to }

// genTopology builds a tandem (1-8 hops), a cross (a tandem plus the
// single-hop entry points the paper's CROSS scenario uses), or a tree
// (leaf fan-in through two stages plus a tandem tail). Capacities are
// heterogeneous so per-hop terms of the bounds differ.
func genTopology(sc *Case, r *rng.Rand) {
	cap := func() float64 { return 0.5e6 + 1.5e6*r.Float64() }
	gamma := func() float64 { return 1e-4 + 9e-4*r.Float64() }
	add := func(from, to string) {
		sc.Servers = append(sc.Servers, config.Server{
			Name: linkName(from, to), From: from, To: to, Capacity: cap(), Gamma: gamma()})
	}
	switch r.Intn(3) {
	case 0:
		sc.Check.Kind = "tandem"
		hops := 1 + r.Intn(8)
		for i := 0; i < hops; i++ {
			add(node(i), node(i+1))
		}
	case 1:
		sc.Check.Kind = "cross"
		hops := 2 + r.Intn(6)
		for i := 0; i < hops; i++ {
			add(node(i), node(i+1))
		}
	default:
		sc.Check.Kind = "tree"
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
// a class hierarchy. Class caps are fractions of each link's capacity,
// so one class list serves the heterogeneous links. A quarter of the
// scenarios are the paper's exactness corner (procedure 1, one class,
// no jitter control) where LiT must equal VirtualClock bit for bit.
func genAdmissionConfig(sc *Case, r *rng.Rand) {
	minCap := sc.Servers[0].Capacity
	for _, l := range sc.Servers {
		if l.Capacity < minCap {
			minCap = l.Capacity
		}
	}
	if r.Intn(4) == 0 {
		sc.Check.Special = true
		sc.Proc = 1
		sc.Classes = []config.Class{{RFrac: 1, Sigma: 1}}
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
		sc.Classes = append(sc.Classes, config.Class{RFrac: frac, Sigma: base * float64(k)})
	}
}

// genSessions proposes candidate sessions and keeps the ones the
// runner admits after those already kept, each with its route written
// out: a session must be admitted at every hop of its route or it is
// skipped.
func genSessions(sc *Case, r *rng.Rand) {
	g, err := sc.Graph()
	if err != nil {
		panic(err) // the generator's own links
	}
	admits := admitter(sc)
	candidates := 3 + r.Intn(8)
	id := 0
	for c := 0; c < candidates; c++ {
		def, from, to := genCandidate(sc, r, id+1)
		links, err := g.RouteLinks(from, to)
		if err != nil {
			continue
		}
		minCap := links[0].Capacity
		for _, l := range links {
			def.Route = append(def.Route, linkName(l.From, l.To))
			if l.Capacity < minCap {
				minCap = l.Capacity
			}
		}
		def.Rate = (0.04 + 0.2*r.Float64()) * minCap
		genSource(sc, &def, r)
		if admits(def) {
			id++ // now def.ID
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
	l := &sc.Servers[0]
	def := config.Session{
		ID: 1, Route: []string{l.Name},
		Rate: 0.05 * l.Capacity,
		LMin: sc.LMax, LMax: sc.LMax, B0: sc.LMax,
	}
	// cbr takes no seed; the draw keeps the duration's where it is.
	def.Source = conformingSource("cbr", r.Uint64(), &def, 0, 0, 0)
	if sc.Proc == 3 {
		def.D = 2 * def.LMax / def.Rate
	} else {
		def.Class = 1
	}
	if admits(def) {
		sc.Sessions = append(sc.Sessions, def)
	}
}

// admitter returns the generator's verdict on a candidate: whether the
// runner builds the document with it added after the sessions kept so
// far. It is a Connect on the system Prepare builds for the case before
// any candidate, which then holds every session kept, connected in the
// order Prepare connects them; a refusal leaves no state behind. A
// case Prepare cannot build admits nothing.
func admitter(sc *Case) func(def config.Session) bool {
	run, err := build(sc, nil)
	if err != nil {
		return func(config.Session) bool { return false }
	}
	sys := run.System()
	servers := make(map[string]*system.Server)
	for _, srv := range sys.Servers() {
		servers[srv.Port.Name] = srv
	}
	return func(def config.Session) bool {
		req := def.Request()
		for _, name := range def.Route {
			req.Route = append(req.Route, servers[name])
		}
		_, _, err := sys.Connect(req)
		return err == nil
	}
}

// genCandidate draws a candidate's endpoints and shape-independent
// fields. Rates and sources are filled in after the route (and its
// minimum capacity) is known.
func genCandidate(sc *Case, r *rng.Rand, id int) (def config.Session, from, to string) {
	def.ID = id
	switch sc.Check.Kind {
	case "tandem":
		hops := len(sc.Servers)
		e := r.Intn(hops)
		x := e + 1 + r.Intn(hops-e)
		from, to = node(e), node(x)
	case "cross":
		hops := len(sc.Servers)
		if r.Intn(2) == 0 {
			from, to = node(0), node(hops) // the tagged full path
		} else {
			e := r.Intn(hops) // single-hop cross traffic
			from, to = node(e), node(e+1)
		}
	default: // tree
		leaves := []string{"l0", "l1", "l2", "l3", "m0", "m1"}
		from = leaves[r.Intn(len(leaves))]
		to = "r0"
		// Sometimes continue down the tail.
		for _, l := range sc.Servers {
			if l.From == to && r.Intn(2) == 0 {
				to = l.To
			}
		}
	}
	if !sc.Check.Special {
		def.JitterControl = r.Intn(5) < 2
	}
	if sc.Proc != 3 {
		def.Class = 1 + r.Intn(len(sc.Classes))
	}
	return def, from, to
}

// genSource fills the candidate's packet-length envelope, token bucket
// and source parameters; it runs after Rate is known. Lengths stay
// within the network-wide L_MAX.
func genSource(sc *Case, def *config.Session, r *rng.Rand) {
	kind := []string{"cbr", "onoff", "poisson", "varlen"}[r.Intn(4)]
	length := (0.4 + 0.6*r.Float64()) * sc.LMax
	seed := r.Uint64()
	def.LMin, def.LMax, def.B0 = length, length, length
	var meanOn, meanOff, gap float64
	switch kind {
	case "onoff":
		t := length / def.Rate
		meanOn = t * (2 + 10*r.Float64())
		meanOff = t * 20 * r.Float64()
	case "poisson":
		def.B0 = length * float64(1+r.Intn(4))
		gap = length / def.Rate * (0.6 + 0.8*r.Float64())
	case "varlen":
		def.LMin = length * (0.3 + 0.3*r.Float64())
		def.B0 = length * float64(1+r.Intn(4))
		gap = length / def.Rate * (0.6 + 0.8*r.Float64())
	}
	def.Source = conformingSource(kind, seed, def, meanOn, meanOff, gap)
	// Drawn under every procedure so the stream does not depend on it.
	if d := def.LMax / def.Rate * (1 + r.Float64()); sc.Proc == 3 {
		def.D = d
	}
}

// conformingSource writes out one of the harness's four traffic models
// for a session whose rate, lmax and b0 are set. Each conforms to the
// token bucket (rate, b0) by construction, so D_ref_max = b0/rate holds
// for the bound checks: cbr and onoff emit at spacing lmax/rate (the
// paper's voice model), poisson and varlen (lengths uniform over
// lmin..lmax) pass through an explicit shaper.
func conformingSource(kind string, seed uint64, def *config.Session, meanOn, meanOff, gap float64) config.Source {
	src := config.Source{Length: def.LMax}
	switch kind {
	case "cbr":
		src.Kind, src.Interval = "deterministic", def.LMax/def.Rate
	case "onoff":
		src.Kind, src.Seed, src.T = kind, seed, def.LMax/def.Rate
		src.MeanOn, src.MeanOff = meanOn, meanOff
	case "poisson", "varlen":
		src.Kind, src.Seed, src.Mean = kind, seed, gap
		src.ShapeRate, src.ShapeB0 = def.Rate, def.B0
	default:
		panic(fmt.Sprintf("simcheck: unknown source kind %q", kind))
	}
	return src
}

// genDuration sizes the run so the slowest session still emits a
// meaningful number of packets, capped to keep a seed cheap.
func genDuration(sc *Case, r *rng.Rand) {
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
