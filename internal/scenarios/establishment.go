package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/admission"
	"leaveintime/internal/rng"
	"leaveintime/internal/signaling"
	"leaveintime/internal/stats"
	"leaveintime/internal/system"
)

// EstablishmentResult measures connection-establishment latency for the
// full MIX configuration set up through hop-by-hop signaling: 116 SETUP
// messages ride the Figure 6 links (1 ms propagation per hop plus
// per-node admission processing), exactly filling every link; a final
// extra call is refused with a REJECT that releases its partial
// reservations.
type EstablishmentResult struct {
	Requested, Accepted int
	// Latency collects per-connection setup latencies (seconds).
	Latency stats.Tracker
	// ByHops[h] tracks latencies of h-hop connections (1-based index).
	ByHops [6]stats.Tracker
	// ExtraRejected confirms the 117th call was refused.
	ExtraRejected bool
	// ExtraLatency is how long the refusal took to reach the source.
	ExtraLatency float64
}

// RunEstablishment signals the MIX configuration into the Figure 6
// network. processing is the per-node admission processing time.
func RunEstablishment(seed uint64, processing float64) *EstablishmentResult {
	// The tandem's servers are built on a System of their own: the run
	// needs their admission controllers and no session.
	sys, err := system.New(system.Config{LMax: CellBits})
	if err != nil {
		panic(err)
	}
	sim := sys.Sim
	r := rng.New(seed)

	// The tandem's admission controllers, one per node, shared by every
	// signaler.
	nodes := make([]*signaling.Node, NumNodes)
	for i := range nodes {
		srv, err := sys.AddServer(fmt.Sprintf("node%d", i+1), T1Rate, PropDelay)
		if err != nil {
			panic(err)
		}
		nodes[i] = &signaling.Node{
			Name:       srv.Port.Name,
			Admit:      srv.Admission(),
			Gamma:      srv.Gamma,
			Processing: processing,
		}
	}

	res := &EstablishmentResult{}
	id := 0
	clock := 0.0
	for _, mr := range MixRoutes {
		for i := 0; i < mr.Count; i++ {
			id++
			res.Requested++
			path := nodes[mr.Entrance-1 : mr.Exit]
			sig := signaling.New(sim, path)
			spec := admission.SessionSpec{ID: id, Rate: VoiceRate, LMax: CellBits, LMin: CellBits}
			hops := mr.Exit - mr.Entrance + 1
			// Stagger requests so concurrent SETUPs interleave.
			clock += r.Exp(5e-3)
			launch := clock
			sim.Schedule(launch, func() {
				sig.Establish(signaling.Request{Spec: spec, Class: 1,
					Opts: admission.Options{PerPacket: true}},
					func(rr signaling.Result) {
						if rr.Accepted {
							res.Accepted++
							res.Latency.Add(rr.SetupLatency)
							res.ByHops[hops].Add(rr.SetupLatency)
						}
					})
			})
		}
	}
	sim.RunAll()

	// The 117th call: one more voice circuit on the full a-j path.
	sigExtra := signaling.New(sim, nodes)
	sigExtra.Establish(signaling.Request{
		Spec:  admission.SessionSpec{ID: 9999, Rate: VoiceRate, LMax: CellBits, LMin: CellBits},
		Class: 1,
		Opts:  admission.Options{PerPacket: true},
	}, func(rr signaling.Result) {
		res.ExtraRejected = !rr.Accepted
		res.ExtraLatency = rr.SetupLatency
	})
	sim.RunAll()
	return res
}

// Format renders the latency summary.
func (r *EstablishmentResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Connection establishment via signaling: %d/%d MIX sessions accepted\n",
		r.Accepted, r.Requested)
	fmt.Fprintf(&b, "  setup latency: mean %.2f ms, max %.2f ms\n",
		r.Latency.Mean()*1e3, r.Latency.Max()*1e3)
	for h := 1; h <= 5; h++ {
		if r.ByHops[h].Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %d-hop connections (%3d): mean %.2f ms\n",
			h, r.ByHops[h].Count(), r.ByHops[h].Mean()*1e3)
	}
	fmt.Fprintf(&b, "  117th call rejected: %v (refusal latency %.2f ms)\n",
		r.ExtraRejected, r.ExtraLatency*1e3)
	return b.String()
}
