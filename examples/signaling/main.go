// Signaling: establish connections the way a real connection-oriented
// network does — SETUP messages ride the links, pay propagation and
// processing delay at every node, run the admission test hop by hop,
// and ACCEPT/REJECT travels back. Two setups race for the last
// capacity of a transcontinental path; exactly one wins, the loser's
// partial reservations are released, and the setup latencies reflect
// where on the path each outcome was decided.
package main

import (
	"fmt"
	"log"

	lit "leaveintime"
)

func main() {
	sim := lit.NewSimulator()

	// A five-hop path with 10 ms links (about 2000 km each) and 1 ms of
	// admission processing per node.
	var path []*lit.SignalNode
	for i := 0; i < 5; i++ {
		ac, err := lit.NewProcedure1(45e6, []lit.Class{{R: 45e6, Sigma: 1}}) // DS3 links
		if err != nil {
			log.Fatal(err)
		}
		path = append(path, &lit.SignalNode{
			Name:       fmt.Sprintf("sw%d", i+1),
			Admit:      ac,
			Gamma:      10e-3,
			Processing: 1e-3,
		})
	}
	sig := lit.NewSignaler(sim, path)

	spec := func(id int, rate float64) lit.SessionSpec {
		return lit.SessionSpec{ID: id, Rate: rate, LMax: 12000, LMin: 12000}
	}

	// A background reservation takes most of the path's capacity.
	sig.Establish(lit.SignalRequest{Spec: spec(1, 30e6), Class: 1}, func(r lit.SignalResult) {
		fmt.Printf("t=%6.1f ms  session 1 (30 Mb/s): accepted=%v latency=%.1f ms\n",
			sim.Now()*1e3, r.Accepted, r.SetupLatency*1e3)
	})
	sim.RunAll()

	// Now two 10 Mb/s setups race for the remaining 15 Mb/s.
	for id := 2; id <= 3; id++ {
		id := id
		sig.Establish(lit.SignalRequest{Spec: spec(id, 10e6), Class: 1}, func(r lit.SignalResult) {
			if r.Accepted {
				fmt.Printf("t=%6.1f ms  session %d (10 Mb/s): ACCEPTED, latency %.1f ms, d/node %.2f ms\n",
					sim.Now()*1e3, id, r.SetupLatency*1e3, r.Assignments[0].DMax*1e3)
			} else {
				fmt.Printf("t=%6.1f ms  session %d (10 Mb/s): rejected at node %d (%v), latency %.1f ms\n",
					sim.Now()*1e3, id, r.RejectedAt+1, r.Err, r.SetupLatency*1e3)
			}
		})
	}
	sim.RunAll()

	// Tear down the background reservation and retry the loser: now it
	// fits.
	if err := sig.Teardown(1, func() {
		fmt.Printf("t=%6.1f ms  session 1 torn down\n", sim.Now()*1e3)
	}); err != nil {
		log.Fatal(err)
	}
	sim.RunAll()
	sig.Establish(lit.SignalRequest{Spec: spec(4, 10e6), Class: 1}, func(r lit.SignalResult) {
		fmt.Printf("t=%6.1f ms  session 4 (10 Mb/s): accepted=%v latency=%.1f ms\n",
			sim.Now()*1e3, r.Accepted, r.SetupLatency*1e3)
	})
	sim.RunAll()
}
