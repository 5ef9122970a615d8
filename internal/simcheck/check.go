package simcheck

import (
	"fmt"
	"sort"
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
// all. Four checks mean something only on an undisturbed network and
// are skipped under a plan: the approximate queue's delay margin and the
// LiT ≡ VirtualClock differential compare two runs packet for packet,
// which a purge or an outage desynchronises, and the class and calculus
// batteries check bounds derived for the full admitted set on working
// links. There is no switch for any of them: a clean case runs them all,
// each passing over what its own preconditions exclude (jitter control,
// a session that declares no b0, routes that order the links
// cyclically). The report is a pure function of the case and options: same
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
	// at the bound for half the sessions and probes everywhere.
	exact := rep.runUnder(&sc, sched.Lookup("lit"), runOpts{limits: true, probes: true, wd: wd})
	if exact == nil {
		return rep
	}
	if exact.Tripped == "" {
		survivors := *exact
		survivors.Sessions = cleanSurvivors(exact, &sc)
		checkBounds(&survivors, scale, rep)
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

	// The exactness corner: procedure 1, one class, eps = 0, no jitter
	// control — LiT and VirtualClock must produce bit-identical
	// per-packet delays. Both sides run bare (no buffer limits) so the
	// comparison is over the full packet stream.
	if clean && sc.Check.Special {
		litBare, err1 := runScenario(&sc, sched.Lookup("lit"), runOpts{collectDelays: true, wd: wd})
		vcRun, err2 := runScenario(&sc, sched.Lookup("virtualclock"), runOpts{collectDelays: true, wd: wd})
		if err1 != nil || err2 != nil {
			rep.add(Violation{Check: "build", Discipline: "vc-diff",
				Detail: fmt.Sprintf("lit: %v, vc: %v", err1, err2)})
		} else if litBare.Tripped == "" && vcRun.Tripped == "" {
			checkVCEquivalence(litBare, vcRun, rep)
		}
	}

	if clean {
		// The aggregate-class discipline with degraded bound checks
		// (see aggcheck.go).
		checkAggregate(&sc, exact, scale, wd, rep)
		// Network-calculus battery: curve-propagated FIFO bounds
		// against an FCFS run, plus the admission fast-path
		// differential check (see calccheck.go).
		checkCalculus(&sc, scale, wd, rep)
	}

	// Every baseline discipline: generic invariants only (drain,
	// conservation, capacity return, identical emission).
	for _, row := range sched.Table {
		if row.Name == "lit" || row.Name == "lit-approx" {
			continue // the reference and approximate runs above
		}
		if res := rep.runUnder(&sc, row, runOpts{wd: wd}); res != nil && res.Tripped == "" {
			checkDrain(res, rep)
			checkCapacity(res, rep)
			if exact.Tripped == "" {
				checkEmitted(exact, res, rep)
			}
		}
	}
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

// checkBounds verifies the paper's service commitments on the
// reference run: end-to-end delay (eq. 12), delay jitter (ineq. 17 and
// its no-control form), buffer occupancy against the buffer bounds, and
// loss-freedom for sessions whose buffers were capped at the bound. A
// session that declares no b0 has no D_ref_max and so none of these.
func checkBounds(res *runResult, scale float64, rep *SeedReport) {
	for _, sr := range res.Sessions {
		id := sr.Def.ID
		if sr.Delivered > 0 && sr.Def.B0 > 0 {
			if bound := sr.DelayBound * scale; sr.MaxDelay >= bound {
				rep.add(Violation{Check: "delay-bound", Discipline: res.Name, Session: id,
					Detail: fmt.Sprintf("max delay %.9f >= bound %.9f (%d hops)",
						sr.MaxDelay, bound, sr.Hops)})
			}
			if bound := sr.JitterBnd * scale; sr.Jitter >= bound {
				rep.add(Violation{Check: "jitter-bound", Discipline: res.Name, Session: id,
					Detail: fmt.Sprintf("jitter %.9f >= bound %.9f", sr.Jitter, bound)})
			}
		}
		for _, pr := range sr.Probes {
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
	byID := make(map[int]sessResult, len(exact.Sessions))
	for _, sr := range exact.Sessions {
		byID[sr.Def.ID] = sr
	}
	for _, sr := range approx.Sessions {
		ref, ok := byID[sr.Def.ID]
		if !ok || sr.Delivered == 0 {
			continue
		}
		// One bin is LMax/C of the hop; five bins per hop at the
		// slowest link is the margin the repository's fixed-point
		// approximation test uses.
		margin := 5 * float64(sr.Hops) * sc.LMax / sr.MinLinkCap
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
	byID := make(map[int]int64, len(ref.Sessions))
	for _, sr := range ref.Sessions {
		byID[sr.Def.ID] = sr.Emitted
	}
	for _, sr := range res.Sessions {
		if want, ok := byID[sr.Def.ID]; ok && sr.Emitted != want {
			rep.add(Violation{Check: "emit-divergence", Discipline: res.Name, Session: sr.Def.ID,
				Detail: fmt.Sprintf("emitted %d, reference emitted %d", sr.Emitted, want)})
		}
	}
}

// checkVCEquivalence verifies the paper's special case: with admission
// procedure 1, one class, eps = 0 and no jitter control, Leave-in-Time
// is VirtualClock — per-packet end-to-end delays must be bit-identical.
func checkVCEquivalence(lit, vc *runResult, rep *SeedReport) {
	vcByID := make(map[int][]seqDelay, len(vc.Sessions))
	for _, sr := range vc.Sessions {
		vcByID[sr.Def.ID] = sr.Delays
	}
	for _, sr := range lit.Sessions {
		other := vcByID[sr.Def.ID]
		if len(other) != len(sr.Delays) {
			rep.add(Violation{Check: "vc-equivalence", Discipline: "lit", Session: sr.Def.ID,
				Detail: fmt.Sprintf("lit delivered %d packets, virtualclock %d",
					len(sr.Delays), len(other))})
			continue
		}
		// Delivery order can differ only if delays differ; sort both by
		// sequence for a stable pairing.
		sortBySeq(sr.Delays)
		sortBySeq(other)
		for i := range sr.Delays {
			if sr.Delays[i] != other[i] {
				rep.add(Violation{Check: "vc-equivalence", Discipline: "lit", Session: sr.Def.ID,
					Detail: fmt.Sprintf("seq %d: lit delay %.17g, virtualclock %.17g",
						sr.Delays[i].Seq, sr.Delays[i].Delay, other[i].Delay)})
				break
			}
		}
	}
}

func sortBySeq(s []seqDelay) {
	sort.Slice(s, func(i, j int) bool { return s[i].Seq < s[j].Seq })
}
