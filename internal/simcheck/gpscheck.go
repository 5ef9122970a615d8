package simcheck

import (
	"fmt"
	"math"
	"slices"

	"leaveintime/internal/packet"
)

// gpsRows are the baselines that emulate Generalized Processor Sharing
// packet by packet, and so keep Parekh and Gallager's Theorem 1 at every
// port (Bennett and Zhang show it of WF2Q too): no packet leaves later
// than L_MAX/C after it would leave the fluid GPS server that saw the
// same arrivals. The end-to-end bound leaves room for a wrong virtual
// time; this reference does not.
var gpsRows = map[string]bool{"wfq": true, "wf2q": true}

// gpsLog records one port's packets for the GPS reference: each arrival
// in order with its session's weight, and when it left the port.
type gpsLog struct {
	weight   map[int]float64
	arrivals []gpsArrival
	held     map[*packet.Packet]int
}

type gpsArrival struct {
	session            int
	seq                int64
	at, length, weight float64
	// tag is the finish tag the discipline stamped (Packet.Deadline),
	// left the end of the packet's transmission.
	tag, left float64
}

func newGPSLog() *gpsLog {
	return &gpsLog{weight: map[int]float64{}, held: map[*packet.Packet]int{}}
}

func (g *gpsLog) arrive(p *packet.Packet, now float64) {
	g.held[p] = len(g.arrivals)
	g.arrivals = append(g.arrivals, gpsArrival{session: p.Session, seq: p.Seq, at: now,
		length: p.Length, weight: g.weight[p.Session], tag: p.Deadline})
}

func (g *gpsLog) leave(p *packet.Packet, finish float64) {
	g.arrivals[g.held[p]].left = finish
	delete(g.held, p)
}

// gpsFinish returns when each arrival, in time order, leaves the fluid
// GPS server of capacity c: while sessions are backlogged, each is served
// at c*w/W, W the sum of their weights. It steps the server's virtual
// time V (dV/dt = c/W) from arrival to arrival, a packet leaving when V
// reaches its finish tag max(V at arrival, its session's last tag) + L/w.
func gpsFinish(c float64, arr []gpsArrival) (fin, tag []float64) {
	fin = make([]float64, len(arr))
	tag = make([]float64, len(arr))
	last := map[int]int{} // session -> index of its last packet still in GPS
	var pending []int     // packets in GPS, least tag first (arrival order on ties)
	var v, t, w float64
	advance := func(to float64) {
		for len(pending) > 0 {
			k := pending[0]
			if dt := (tag[k] - v) * w / c; t+dt <= to {
				t, v = t+dt, tag[k]
				fin[k] = t
				pending = pending[1:]
				if s := arr[k].session; last[s] == k {
					delete(last, s)
					if w -= arr[k].weight; len(last) == 0 {
						w = 0
					}
				}
				continue
			}
			v += (to - t) * c / w
			break
		}
		t = to
	}
	for k, a := range arr {
		advance(a.at)
		start := v
		if j, backlogged := last[a.session]; backlogged {
			start = tag[j]
		} else {
			w += a.weight
		}
		tag[k] = start + a.length/a.weight
		last[a.session] = k
		i, _ := slices.BinarySearchFunc(pending, tag[k], func(j int, f float64) int {
			if tag[j] <= f {
				return -1
			}
			return 1
		})
		pending = slices.Insert(pending, i, k)
	}
	advance(math.Inf(1))
	return fin, tag
}

// checkGPS holds every port of a GPS-emulating run to the fluid GPS
// server fed the port's own arrivals. Each packet leaves within L_MAX/C
// of its GPS finish (a port reports its latest packet), and each stamp
// is the packet's GPS finish tag in virtual time (a port reports its
// first wrong one): the stamps are the virtual time the discipline
// kept, which the departures show only where a busy period is long.
func checkGPS(res *runResult, sc *Case, rep *SeedReport) {
	for _, srv := range res.Servers {
		disc := srv.Port.Disc.(*checkedDisc)
		fin, tag := gpsFinish(srv.Port.C, disc.gps.arrivals)
		allow := disc.lMax / srv.Port.C
		worst, late, wrong := -1, 0.0, -1
		for k, a := range disc.gps.arrivals {
			if l := a.left - fin[k]; l > allow+1e-9 && l > late {
				worst, late = k, l
			}
			if wrong < 0 && math.Abs(a.tag-tag[k]) > 1e-9*(1+math.Abs(tag[k])) {
				wrong = k
			}
		}
		if worst >= 0 {
			a := disc.gps.arrivals[worst]
			rep.add(Violation{Check: "gps-lag", Discipline: res.Name, Session: sc.docID(a.session), Port: srv.Port.Name,
				Detail: fmt.Sprintf("seq %d left at %.9f, %.9f after its GPS finish %.9f (L_MAX/C %.9f)",
					a.seq, a.left, late, fin[worst], allow)})
		}
		if wrong >= 0 {
			a := disc.gps.arrivals[wrong]
			rep.add(Violation{Check: "gps-tag", Discipline: res.Name, Session: sc.docID(a.session), Port: srv.Port.Name,
				Detail: fmt.Sprintf("seq %d stamped finish tag %.12g, GPS %.12g", a.seq, a.tag, tag[wrong])})
		}
	}
}
