package scenarios

import (
	"fmt"
	"strings"

	"leaveintime/internal/core"
	"leaveintime/internal/network"
	"leaveintime/internal/rng"
	"leaveintime/internal/sched"
	"leaveintime/internal/trace"
)

// The UPS replay experiment, after Mittal et al., "Universal Packet
// Scheduling" (NSDI 2016). UPS's central construction: record the
// per-packet delivery schedule produced by some discipline X, stuff
// each packet's remaining slack (recorded delivery time minus what the
// wire itself will consume) into its header, and replay the identical
// arrival pattern under Least Slack Time First. LSTF then reproduces
// X's schedule almost exactly — one discipline imitating all others.
//
// The experiment bears on this repository because Leave-in-Time's
// header field is the same object: packet.Hold carries per-packet
// slack hop to hop (eq. 9). So LiT's own machinery — a delay regulator
// driven by a slack header — is a replay mechanism too, just a
// non-work-conserving one: where LSTF *prioritizes* by slack and may
// run early, the LiT regulator *holds* by slack and releases on the
// recorded schedule. The run measures both replayers against the same
// recordings:
//
//   - lstf: sessions registered with a zero per-node budget, initial
//     slack = recorded delivery − emission − total propagation. Slack
//     is consumed by queueing and transmission, carried by OnTransmit.
//     Work-conserving, so it may deliver early; UPS's replay criterion
//     is lateness, reported as the on-time fraction.
//   - lit: jitter-controlled Leave-in-Time with a zero service
//     parameter, initial slack additionally excluding the per-hop
//     transmission times — the regulator holds each packet until its
//     recorded schedule minus exactly the wire time, so an uncontended
//     replay delivers at the recorded instant on the nose.
//
// Traffic is a fixed 30-session ON-OFF population over the Figure 6
// tandem (four route groups, heaviest link booked at 62.5%), identical
// across every run of a seed: sources are rebuilt from the same split
// sequence, so emission instants match packet for packet and the
// recorded schedule indexes by (session, seq). Everything is
// deterministic in (duration, seed).

// upsAOff is the mean OFF time of every source: the mid-sweep value of
// Figure 7 (duty cycle ≈ 0.90).
const upsAOff = 0.0391

// UPSTol is the replay lateness tolerance: one cell transmission time
// on a Figure 6 link. A replayed packet delivered no more than this
// after its recorded delivery counts as on time.
const UPSTol = CellBits / T1Rate

// upsRoutes is the session population: route groups (entrance, exit,
// count) on the tandem. Link bookings are 18/24/30/24/18 sessions ×
// 32 kbit/s — the heaviest link at 62.5% of T1 — so recorded schedules
// contain real queueing without saturation.
var upsRoutes = []struct{ entrance, exit, count int }{
	{1, 5, 12},
	{1, 3, 6},
	{3, 5, 6},
	{2, 4, 6},
}

// upsDef is one session of the expanded population.
type upsDef struct{ entrance, exit int }

func upsDefs() []upsDef {
	var defs []upsDef
	for _, r := range upsRoutes {
		for i := 0; i < r.count; i++ {
			defs = append(defs, upsDef{r.entrance, r.exit})
		}
	}
	return defs
}

// upsSchedule records a run's delivery schedule via the trace stream:
// deliver[session-1][seq-1] is the delivery instant. Slices, not maps,
// so replay lookups and comparisons are deterministic and allocation
// stays out of the per-event path once grown.
type upsSchedule struct {
	deliver [][]float64
	count   int64
}

// Trace implements trace.Tracer.
func (s *upsSchedule) Trace(e trace.Event) {
	if e.Kind != trace.Deliver {
		return
	}
	i := e.Session - 1
	if i < 0 || i >= len(s.deliver) {
		return
	}
	for int64(len(s.deliver[i])) < e.Seq {
		s.deliver[i] = append(s.deliver[i], 0)
	}
	s.deliver[i][e.Seq-1] = e.Time
	s.count++
}

// upsRun executes the fixed population once under the given discipline.
// cfg is the per-hop session configuration; slack, when non-nil,
// installs the per-session initial-slack hook (the replay harness).
func upsRun(duration float64, seed uint64, mk func() network.Discipline, cfg network.SessionPort,
	jitterCtrl bool, slack func(sess int, def upsDef) func(seq int64, t float64) float64) *upsSchedule {

	net, ports := rawTandem(mk)
	r := rng.New(seed)

	defs := upsDefs()
	rec := &upsSchedule{deliver: make([][]float64, len(defs))}
	net.Tracer = rec

	for i, def := range defs {
		route := ports[def.entrance-1 : def.exit]
		cfgs := make([]network.SessionPort, len(route))
		for h := range cfgs {
			cfgs[h] = cfg
		}
		s := net.AddSession(i+1, VoiceRate, jitterCtrl, route, cfgs,
			NewOnOff(upsAOff, r.Split()))
		if slack != nil {
			s.InitialSlack = slack(i+1, def)
		}
		s.Start(0, duration)
	}
	net.Sim.RunAll()
	return rec
}

// zeroD is the zero per-node service budget of the replay harness:
// every due time reduces to arrival + carried slack.
func zeroD(float64) float64 { return 0 }

// UPSRow is one (recorded discipline, replayer) comparison.
type UPSRow struct {
	Recorded string
	Replayer string
	// Packets is the number of (session, seq) pairs delivered in both
	// runs (the emission pattern is identical, so normally all).
	Packets int64
	// MeanDist is the mean |replay − recorded| delivery-time distance
	// in seconds; MaxLate the worst lateness (early deliveries clamp
	// to zero).
	MeanDist float64
	MaxLate  float64
	// OnTime is the fraction delivered no later than recorded + UPSTol,
	// UPS's replay criterion.
	OnTime float64
}

// UPSResult is the full experiment: every replayer against every
// recorded discipline.
type UPSResult struct {
	Duration float64
	Seed     uint64
	Sessions int
	Packets  int64 // per recorded run (identical emissions)
	Rows     []UPSRow
}

// RunUPS records the delivery schedule of each baseline discipline
// over the fixed tandem population, then replays the identical arrival
// pattern under LSTF (slack-priority, work-conserving) and under
// jitter-controlled Leave-in-Time (slack-regulator, non-work-
// conserving), measuring how closely each reproduces the recording.
func RunUPS(duration float64, seed uint64) *UPSResult {
	recorded := []struct {
		name string
		mk   func() network.Discipline
		cfg  network.SessionPort
	}{
		{"fcfs", func() network.Discipline { return sched.NewFCFS() }, network.SessionPort{}},
		{"virtualclock", func() network.Discipline { return sched.NewVirtualClock() }, network.SessionPort{}},
		{"wfq", func() network.Discipline { return sched.NewWFQ(T1Rate) }, network.SessionPort{}},
		{"delayedd", func() network.Discipline { return sched.NewDelayEDD() },
			network.SessionPort{LocalDelay: CellBits / VoiceRate, XMin: OnSpacing}},
	}

	defs := upsDefs()
	res := &UPSResult{Duration: duration, Seed: seed, Sessions: len(defs)}

	for _, rx := range recorded {
		sched0 := upsRun(duration, seed, rx.mk, rx.cfg, false, nil)
		res.Packets = sched0.count

		// Replayer 1: LSTF with initial slack = recorded delivery −
		// emission − total propagation (queueing and transmission
		// consume slack; the speed of light does not).
		lstfSlack := func(sess int, def upsDef) func(seq int64, t float64) float64 {
			props := float64(def.exit-def.entrance+1) * PropDelay
			at := sched0.deliver[sess-1]
			return func(seq int64, t float64) float64 {
				if seq < 1 || seq > int64(len(at)) {
					return 0
				}
				return at[seq-1] - t - props
			}
		}
		lstfRun := upsRun(duration, seed,
			func() network.Discipline { return sched.NewLSTF() },
			network.SessionPort{D: zeroD}, false, lstfSlack)
		res.Rows = append(res.Rows, upsCompare(rx.name, "lstf", sched0, lstfRun))

		// Replayer 2: jitter-controlled LiT with d = 0. The regulator
		// holds each packet for its full slack at the first node, so
		// the slack additionally excludes the per-hop transmission
		// times the wire will consume downstream.
		litSlack := func(sess int, def upsDef) func(seq int64, t float64) float64 {
			hops := float64(def.exit - def.entrance + 1)
			wire := hops * (PropDelay + CellBits/T1Rate)
			at := sched0.deliver[sess-1]
			return func(seq int64, t float64) float64 {
				if seq < 1 || seq > int64(len(at)) {
					return 0
				}
				return at[seq-1] - t - wire
			}
		}
		litRun := upsRun(duration, seed,
			func() network.Discipline { return core.New(core.Config{Capacity: T1Rate, LMax: CellBits}) },
			network.SessionPort{D: zeroD}, true, litSlack)
		res.Rows = append(res.Rows, upsCompare(rx.name, "lit", sched0, litRun))
	}
	return res
}

// upsCompare reduces two schedules to one comparison row.
func upsCompare(recName, repName string, rec, rep *upsSchedule) UPSRow {
	row := UPSRow{Recorded: recName, Replayer: repName}
	var distSum float64
	var onTime int64
	for i := range rec.deliver {
		ra, pa := rec.deliver[i], rep.deliver[i]
		n := len(ra)
		if len(pa) < n {
			n = len(pa)
		}
		for j := 0; j < n; j++ {
			d := pa[j] - ra[j]
			row.Packets++
			if d < 0 {
				distSum -= d
			} else {
				distSum += d
				if d > row.MaxLate {
					row.MaxLate = d
				}
			}
			if d <= UPSTol {
				onTime++
			}
		}
	}
	if row.Packets > 0 {
		row.MeanDist = distSum / float64(row.Packets)
		row.OnTime = float64(onTime) / float64(row.Packets)
	}
	return row
}

// Format renders the replay table.
func (r *UPSResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPS replay on the Figure 6 tandem (%d ON-OFF sessions, aOFF=%.3gs, %.0f s run, seed %d):\n",
		r.Sessions, upsAOff, r.Duration, r.Seed)
	fmt.Fprintf(&b, "replayers reproduce each recorded schedule from slack carried in the packet header\n")
	fmt.Fprintf(&b, "(on-time: delivered no later than recorded + one cell time %.3f ms)\n\n", UPSTol*1e3)
	fmt.Fprintf(&b, "%-14s %-8s %8s %14s %14s %9s\n",
		"recorded", "replayer", "pkts", "mean|d|(ms)", "max late(ms)", "on-time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-8s %8d %14.4f %14.4f %8.2f%%\n",
			row.Recorded, row.Replayer, row.Packets,
			row.MeanDist*1e3, row.MaxLate*1e3, row.OnTime*100)
	}
	return b.String()
}
