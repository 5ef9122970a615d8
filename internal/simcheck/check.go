package simcheck

import (
	"fmt"
	"math"
	"time"

	"leaveintime/internal/event"
	"leaveintime/internal/sched"
)

// Options tune a conformance check. None of them selects what is
// checked: every case gets the whole battery (see CheckScenario).
type Options struct {
	// BoundScale, when positive, overrides the case's Check.BoundScale —
	// the injection hook: values below 1 tighten the checked bounds
	// past what the theorems promise, forcing violations whose shrink
	// and replay paths the harness's own tests exercise.
	BoundScale float64

	// MaxEvents caps fired events per run (the deterministic watchdog
	// budget); 0 means 20 000 000, a generous multiple of what a healthy
	// run needs.
	MaxEvents int64
	// MaxWall is a per-run wall-clock budget, a machine-dependent last
	// resort for genuinely hung runs; 0 = unlimited.
	MaxWall time.Duration
}

// watchdog sizes a run's budgets: every run gets deterministic event
// and sim-time ceilings, so a scheduling bug that livelocks the event
// loop becomes a reported, replayable "watchdog" violation with partial
// telemetry instead of a hung process.
func (o Options) watchdog(sc *Case) event.Watchdog {
	wd := event.Watchdog{MaxEvents: o.MaxEvents, MaxSim: 100 * sc.Duration, MaxWall: o.MaxWall}
	if wd.MaxEvents == 0 {
		wd.MaxEvents = 20_000_000
	}
	return wd
}

// checkPanicHook, when non-nil, runs inside CheckScenario right after
// its panic-recovery guard is armed. No Validate-passing scenario can
// be made to panic from the outside (Validate guards every fault-plan
// reference), so this test-only seam is how the recovery path itself
// is exercised.
var checkPanicHook func()

// CheckSeed checks the seed once and completely: its generated case on
// a clean network, then the same case under its generated fault plan.
func CheckSeed(seed uint64, opt Options) (clean, faulted *SeedReport) {
	return CheckScenario(Generate(seed), opt), CheckScenario(GenerateChurn(seed), opt)
}

// fold writes the injected tightening into the case's check object,
// where a written repro keeps it: it then reproduces the failure with
// no extra flags.
func (opt Options) fold(sc *Case) {
	if opt.BoundScale > 0 {
		sc.Check.BoundScale = opt.BoundScale
	}
}

// newReport starts the case's report. A document from elsewhere than
// the generator has no topology kind; procedure 0 means 1.
func newReport(sc *Case) *SeedReport {
	kind := sc.Check.Kind
	if kind == "" {
		kind = "document"
	}
	return &SeedReport{
		Seed: sc.Seed, Topology: kind, Links: len(sc.Servers),
		Sessions: len(sc.Sessions), Proc: max(sc.Proc, 1), Special: sc.Check.Special,
		Duration: sc.Duration, Churn: !sc.Faults.Empty(),
	}
}

// CheckScenario runs the scenario through every discipline, under its
// fault plan if it carries one, and checks the invariant battery. Bound
// checks apply to the sessions that declare b0 and that the plan leaves
// alone (all of them on a clean network), the rest of the battery to
// all. Five checks mean something only on an undisturbed network and
// are skipped under a plan: the approximate queue's delay margin and the
// LiT ≡ VirtualClock differential compare two runs packet for packet,
// which a purge or an outage desynchronises; the baselines' bounds and
// the class-aggregated run hold promises derived for the full admitted
// set on working links (FCFS's and the aggregate's read every session
// of the run); the fast-path check re-admits the full set. There is
// no switch for any of them: a clean case runs them all, and a session a
// promise's preconditions exclude (no b0, routes that order the links
// cyclically, a saturated link) is counted in the ledger by reason. The
// report is a pure function of the case and options: same
// input, byte-identical Format output. A panic anywhere in the battery
// is recovered into a "panic" violation, so a crashing seed still yields
// a report (and a replayable repro) instead of taking the harness down.
func CheckScenario(sc Case, opt Options) (rep *SeedReport) {
	opt.fold(&sc)
	rep = newReport(&sc)
	defer func() {
		if r := recover(); r != nil {
			rep.add(Violation{Check: "panic", Detail: fmt.Sprint(r)})
		}
	}()
	if checkPanicHook != nil {
		checkPanicHook()
	}
	if err := sc.Validate(); err != nil {
		rep.add(Violation{Check: "invalid-scenario", Detail: err.Error()})
		return rep
	}
	scale := sc.boundScale()
	wd := opt.watchdog(&sc)
	clean := sc.Faults.Empty()

	// Reference run: Leave-in-Time with the exact heap, buffer limits
	// at the bound for half the sessions and probes everywhere. Every
	// session the plan leaves alone is held to the lit row's promise,
	// faulted or not; the ledger books clean runs only, LiT's line and
	// its aggregate's after the baselines'.
	exact := rep.runUnder(&sc, sched.Lookup("lit"), runOpts{limits: true, probes: true, collectDelays: clean, wd: wd})
	if exact == nil {
		return rep
	}
	var litTally []boundTally
	if exact.Tripped == "" {
		survivors := *exact
		survivors.Sessions = cleanSurvivors(exact, &sc)
		if t := checkRowBound(&survivors, scale, rep); clean {
			litTally = append(litTally, t)
		}
		checkDrain(exact, rep)
		checkTelemetry(exact, rep)
		checkCapacity(exact, rep)
	}

	// Approximate queue: same scenario, deadline ordering allowed one
	// bin of slack, end-to-end delays within the §4 margin of the exact
	// run.
	if approx := rep.runUnder(&sc, sched.Lookup("lit-approx"), runOpts{wd: wd}); approx != nil && approx.Tripped == "" {
		checkDrain(approx, rep)
		checkCapacity(approx, rep)
		if exact.Tripped == "" {
			if clean {
				checkApprox(exact, approx, &sc, rep)
			}
			checkEmitted(exact, approx, rep)
		}
	}

	if clean {
		// The aggregate-class discipline held to its promise (see
		// aggcheck.go), and the admission fast-path differential
		// check (see calccheck.go).
		if t, ok := checkAggregate(&sc, exact, scale, wd, rep); ok {
			litTally = append(litTally, t)
		}
		checkFastpath(&sc, rep)
	}

	// Every baseline discipline: drain, conservation, capacity return,
	// identical emission and, on a clean network, each session against
	// the bound its row promises and a GPS emulation against GPS. FCFS's
	// promise states per-hop backlog bounds, so its buffers are probed. Two
	// runs compare with the reference run's recording: LSTF replays it
	// and is held to it, and in the exactness corner (procedure 1, one
	// class, eps = 0, no jitter control) VirtualClock must match LiT's
	// per-packet delays to the bit. The reference run's buffers, capped
	// at the bound, drop nothing on a clean network (loss-free), so the
	// recording is the full packet stream.
	recorded := clean && exact.Tripped == ""
	for _, row := range sched.Table {
		if row.Name == "lit" || row.Name == "lit-approx" {
			continue // the reference and approximate runs above
		}
		opts := runOpts{wd: wd, gps: clean && gpsRows[row.Name]}
		switch {
		case clean && row.Name == "fcfs":
			opts.probes = true // its promise bounds each hop's backlog
		case recorded && row.Name == "lstf":
			opts.replay, opts.collectDelays = exact, true
		case recorded && row.Name == "virtualclock":
			opts.collectDelays = sc.Check.Special
		}
		if res := rep.runUnder(&sc, row, opts); res != nil && res.Tripped == "" {
			checkDrain(res, rep)
			checkCapacity(res, rep)
			if exact.Tripped == "" {
				checkEmitted(exact, res, rep)
			}
			switch {
			case opts.replay != nil:
				rep.bounds = append(rep.bounds, checkReplay(exact, res, scale, rep))
			case clean:
				rep.bounds = append(rep.bounds, checkRowBound(res, scale, rep))
			}
			if row.Name == "virtualclock" && opts.collectDelays {
				checkVCEquivalence(exact, res, rep)
			}
			if opts.gps {
				checkGPS(res, &sc, rep)
			}
		}
	}
	rep.bounds = append(rep.bounds, litTally...)
	return rep
}

// runUnder runs the scenario under one discipline and books the run on
// the report: its online violations and its summary row, or the
// refusal and a nil result when the network could not be built.
func (r *SeedReport) runUnder(sc *Case, row sched.Row, opts runOpts) *runResult {
	res, err := runScenario(sc, row, opts)
	if err != nil {
		r.add(refusal(sc, row, err))
		return nil
	}
	r.Violations = append(r.Violations, res.Violations...)
	r.summarize(res)
	return res
}

// checkRowBound holds each session of the run to what the run's row
// promises it (sessResult.Promise): its maximum delay to the delay
// bound and its jitter to the jitter bound, each scaled by the case's
// bound scale, and, where the run probed its buffers, its occupancy to
// the buffer bound at each hop, or no drop where the buffer was capped
// at that bound. A session the row owes no bound is counted under the
// row's reason, one that delivered nothing under "nothing delivered".
// The tally is returned for the caller to book.
func checkRowBound(res *runResult, scale float64, rep *SeedReport) boundTally {
	t := boundTally{discipline: res.Name, excluded: map[string]int{}}
	for _, sr := range res.Sessions {
		p, id := sr.Promise, sr.Def.ID
		switch {
		case p.Bound == 0:
			t.excluded[p.Origin]++
		case sr.Delivered == 0:
			t.excluded["nothing delivered"]++
		default:
			t.checked++
			t.worst = max(t.worst, sr.MaxDelay/p.Bound)
			if bound := p.Bound * scale; sr.MaxDelay >= bound {
				rep.add(Violation{Check: "delay-bound", Discipline: res.Name, Session: id,
					Detail: fmt.Sprintf("max delay %.9f >= bound %.9f (%s, %d hops)",
						sr.MaxDelay, bound, p.Origin, len(sr.Route))})
			}
			if p.Jitter > 0 {
				t.jitterChecked++
				t.jitterWorst = max(t.jitterWorst, sr.Jitter/p.Jitter)
				if bound := p.Jitter * scale; sr.Jitter >= bound {
					rep.add(Violation{Check: "jitter-bound", Discipline: res.Name, Session: id,
						Detail: fmt.Sprintf("jitter %.9f >= bound %.9f", sr.Jitter, bound)})
				}
			}
		}
		for _, pr := range sr.Probes {
			if pr.Bound == 0 {
				continue // the row states no buffer bound
			}
			if pr.Limited {
				if pr.Dropped > 0 {
					rep.add(Violation{Check: "loss-free", Discipline: res.Name, Session: id,
						Port: pr.Port, Detail: fmt.Sprintf(
							"%d drops with buffers provisioned at the bound (%.0f bits)",
							pr.Dropped, pr.Bound)})
				}
			} else if pr.MaxBits >= pr.Bound*scale {
				rep.add(Violation{Check: "buffer-bound", Discipline: res.Name, Session: id,
					Port: pr.Port, Detail: fmt.Sprintf("occupancy %.0f bits >= bound %.0f",
						pr.MaxBits, pr.Bound*scale)})
			}
		}
	}
	return t
}

// checkReplay holds a replay of the recorded run (runOpts.replay) to
// Universal Packet Scheduling's promise for LSTF: when no recorded
// packet waited at more than two ports, every packet is delivered no
// later than recorded, give or take one transmission of the longest
// packet per hop, which a non-preemptive port may have begun just
// before the packet arrived (DESIGN "What each discipline promises").
// So each replayed delay must stay below the recorded one plus the
// route's Σ L_MAX/C_h, scaled by the case's bound scale. A case where a
// recorded packet waited at three or more ports is held to nothing, its
// sessions counted under that reason. The first packet of a session
// past its bound is reported.
func checkReplay(rec, res *runResult, scale float64, rep *SeedReport) boundTally {
	t := boundTally{discipline: res.Name, excluded: map[string]int{}}
	premise := rec.Counts.mostWaits <= 2
	for i, sr := range res.Sessions {
		switch {
		case !premise:
			t.excluded["a packet waited at three or more ports"]++
			continue
		case sr.Delivered == 0:
			t.excluded["nothing delivered"]++
			continue
		}
		t.checked++
		var blocking float64
		for _, h := range sr.Route {
			blocking += res.LMax / h.C
		}
		// A packet missing from either run reads NaN, which every
		// comparison below takes as false.
		for j, d := range sr.Delays {
			r := delayAt(rec.Sessions[i].Delays, j)
			if ratio := d / (r + blocking); ratio > t.worst {
				t.worst = ratio
			}
			if bound := (r + blocking) * scale; d >= bound {
				rep.add(Violation{Check: "replay-delay", Discipline: res.Name, Session: sr.Def.ID,
					Detail: fmt.Sprintf("seq %d: replayed delay %.9f >= bound %.9f (recorded %.9f + blocking %.9f, %d hops)",
						j+1, d, bound, r, blocking, len(sr.Route))})
				break
			}
		}
	}
	return t
}

// checkDrain is packet conservation, fault losses included: per session,
// packets emitted across every incarnation equal deliveries plus every
// traced packet loss (buffer-limit, fault and purge drops), and the pool
// got every packet back once the network drained.
func checkDrain(res *runResult, rep *SeedReport) {
	for _, sr := range res.Sessions {
		drops := res.Counts.SessDrops[sr.Def.ID]
		if sr.Delivered+drops != sr.Emitted {
			rep.add(Violation{Check: "conservation", Discipline: res.Name, Session: sr.Def.ID,
				Detail: fmt.Sprintf("emitted %d != delivered %d + dropped %d (buffer+fault+purge)",
					sr.Emitted, sr.Delivered, drops)})
		}
	}
	if res.Pool.Live != 0 || res.Pool.Released > res.Pool.Taken {
		rep.add(Violation{Check: "pool-balance", Discipline: res.Name,
			Detail: fmt.Sprintf("taken %d released %d live %d after drain",
				res.Pool.Taken, res.Pool.Released, res.Pool.Live)})
	}
}

// checkCapacity demands that after the final teardown pass every
// link's admission controller is back to exactly zero reserved rate:
// released capacity is really released, with no residue from churn,
// lost signaling messages, or the retry paths.
func checkCapacity(res *runResult, rep *SeedReport) {
	for _, srv := range res.Servers {
		if rate := srv.Admission().TotalRate(); rate != 0 {
			rep.add(Violation{Check: "capacity-leak", Discipline: res.Name, Port: srv.Port.Name,
				Detail: fmt.Sprintf("%.9g bits/s still reserved after final teardown", rate)})
		}
	}
}

// checkTelemetry demands triple agreement per port: the trace stream,
// the metrics registry and the buffer probes must tell the same story
// with drops partitioned by cause — buffer-limit drops (also counted by
// the probes), fault/purge packet losses, and lost signaling messages.
// It also sanity-checks the engine counters.
func checkTelemetry(res *runResult, rep *SeedReport) {
	probeDrops := make(map[string]int64)
	for _, sr := range res.Sessions {
		for _, pr := range sr.Probes {
			probeDrops[pr.Port] += pr.Dropped
		}
	}
	for _, pm := range res.Reg.PortCounters() {
		if got := res.Counts.Arrivals[pm.Name]; got != pm.Arrivals {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("trace counted %d arrivals, metrics %d", got, pm.Arrivals)})
		}
		if got := res.Counts.Transmits[pm.Name]; got != pm.Transmissions {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("trace counted %d transmissions, metrics %d", got, pm.Transmissions)})
		}
		bufDrops := res.Counts.Drops[pm.Name] - res.Counts.FaultDrops[pm.Name] - res.Counts.SigDrops[pm.Name]
		if bufDrops != pm.DroppedPackets || pm.DroppedPackets != probeDrops[pm.Name] {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("buffer drops disagree: trace %d, metrics %d, probes %d",
					bufDrops, pm.DroppedPackets, probeDrops[pm.Name])})
		}
		if got := res.Counts.FaultDrops[pm.Name]; got != pm.FaultDrops {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("fault drops disagree: trace %d, metrics %d", got, pm.FaultDrops)})
		}
		if got := res.Counts.SigDrops[pm.Name]; got != pm.SignalingDrops {
			rep.add(Violation{Check: "telemetry-agreement", Discipline: res.Name, Port: pm.Name,
				Detail: fmt.Sprintf("signaling drops disagree: trace %d, metrics %d", got, pm.SignalingDrops)})
		}
	}
	checkEngineSanity(res, rep)
}

// checkEngineSanity cross-checks the event-engine counters against the
// run's activity.
func checkEngineSanity(res *runResult, rep *SeedReport) {
	var emitted int64
	for _, sr := range res.Sessions {
		emitted += sr.Emitted
	}
	eng := res.Reg.EngineCounters()
	if emitted > 0 && eng.Fired == 0 {
		rep.add(Violation{Check: "engine-sanity", Discipline: res.Name,
			Detail: "packets emitted but the engine counted no fired events"})
	}
	if eng.Scheduled < eng.Fired {
		rep.add(Violation{Check: "engine-sanity", Discipline: res.Name,
			Detail: fmt.Sprintf("scheduled %d < fired %d",
				eng.Scheduled, eng.Fired)})
	}
}

// checkApprox verifies the §4 approximate-queue commitment: the
// approximation may reorder transmissions only within a bin, so each
// session's maximum end-to-end delay can exceed the exact heap's by at
// most a few bin widths per hop.
func checkApprox(exact, approx *runResult, sc *Case, rep *SeedReport) {
	for i, sr := range approx.Sessions {
		if sr.Delivered == 0 {
			continue
		}
		ref := exact.Sessions[i]
		// One bin is LMax/C of the hop; five bins per hop at the
		// slowest link is the margin the repository's fixed-point
		// approximation test uses.
		margin := 5 * float64(len(sr.Route)) * sc.LMax / sr.MinLinkCap
		if sr.MaxDelay > ref.MaxDelay+margin {
			rep.add(Violation{Check: "approx-divergence", Discipline: approx.Name,
				Session: sr.Def.ID,
				Detail: fmt.Sprintf("approx max delay %.9f > exact %.9f + margin %.9f",
					sr.MaxDelay, ref.MaxDelay, margin)})
		}
	}
}

// checkEmitted verifies that a run saw the identical arrival sequence:
// sources are deterministic in their seeds and independent of the
// discipline, so per-session emission counts must match the reference
// run exactly.
func checkEmitted(ref, res *runResult, rep *SeedReport) {
	for i, sr := range res.Sessions {
		if want := ref.Sessions[i].Emitted; sr.Emitted != want {
			rep.add(Violation{Check: "emit-divergence", Discipline: res.Name, Session: sr.Def.ID,
				Detail: fmt.Sprintf("emitted %d, reference emitted %d", sr.Emitted, want)})
		}
	}
}

// checkVCEquivalence verifies the paper's special case: with admission
// procedure 1, one class, eps = 0 and no jitter control, Leave-in-Time
// is VirtualClock — per-packet end-to-end delays must be bit-identical.
func checkVCEquivalence(lit, vc *runResult, rep *SeedReport) {
	for i, sr := range lit.Sessions {
		other := vc.Sessions[i].Delays
		for j := range max(len(sr.Delays), len(other)) {
			if a, b := delayAt(sr.Delays, j), delayAt(other, j); math.Float64bits(a) != math.Float64bits(b) {
				rep.add(Violation{Check: "vc-equivalence", Discipline: "lit", Session: sr.Def.ID,
					Detail: fmt.Sprintf("seq %d: lit delay %.17g, virtualclock %.17g", j+1, a, b)})
				break
			}
		}
	}
}
