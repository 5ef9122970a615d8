// Command litcheck is the randomized conformance harness driver: it
// generates one scenario per seed, runs it through every discipline in
// the repository, and checks the paper's invariant battery (delay/
// jitter/buffer bounds, loss-freedom, deadline ordering, work
// conservation, packet conservation, pool balance, capacity return,
// LiT ≡ VirtualClock, approximate-queue divergence, telemetry
// agreement, degraded class-aggregate bounds, network-calculus bounds).
//
// Usage:
//
//	litcheck -seeds 200                 # check seeds 1..200
//	litcheck -seed 17 -seeds 5          # check seeds 17..21
//	litcheck -replay repro.json         # re-check a repro or any litrun document
//
// There is one battery and every seed gets all of it, twice: its
// scenario on a clean network, then the same scenario under a
// deterministic fault plan — link and node outages, source stalls, and
// mid-run session release and re-SETUP through the signaling exchange.
// Each is one report line. A scenario runs under every discipline with
// its plan injected — nothing, on a clean network — on the network
// litrun and litserve build, and every run ends by returning its
// reservations, through the signaling exchange where the plan churns,
// so each is checked for packet conservation counted from the trace, pool drain
// and reserved capacity back to exactly zero at every controller; the
// reference Leave-in-Time run is also checked against the analytic
// bounds and for trace/metrics/probe agreement.
//
// On a clean network the scenario also runs class-aggregated — its
// sessions mapped onto a few classes with one regulator and one K clock
// per class (core.Aggregate), checked against the degraded aggregate
// bounds, the worst degradation factor printed as agg= on the report
// line — and through the network-calculus battery: its flows propagated
// as piecewise-linear arrival curves, the resulting FIFO delay and
// per-flow backlog bounds checked against an FCFS run of the identical
// arrivals (calc= on the report line), and the batch-admission fast path
// differentially checked against sequential admission. Each passes over
// what its preconditions exclude (see internal/simcheck). Under a fault
// plan the bound checks apply to the sessions the plan leaves alone, and
// the four checks that need an undisturbed network are skipped: the
// approximate queue's delay margin, LiT ≡ VirtualClock, and those two.
//
// After the seeds comes the designed tightness family — N synchronized
// CBR sessions saturating one link — whose observed worst delay must
// come within 0.8 of the analytic bound: the calculus bounds must be not
// just sound but tight. A tightness miss fails the run.
//
// Seeds run on a GOMAXPROCS worker pool; reports print in seed order
// and each report is deterministic (same seed, byte-identical output).
// On violation a repro is written under -repro-dir: the scenario
// document with the harness's own keys in a "check" object beside it,
// which runs under litrun and litserve too, a churn repro that sets a
// session up again included. A failing clean case is shrunk to a minimal form and written as
// litcheck_repro_<seed>.json; a failing faulted case is written whole
// as litcheck_repro_<seed>_churn.json, because the fault plan is part
// of the scenario and the repro must replay the identical chaos.
// -replay takes such a repro or any scenario document (bound checks then
// apply to the sessions that declare b0, the rest of the battery to all)
// and runs the whole battery on it; a file with none of a document's
// keys is reported as an invalid-scenario. The exit status is 1 if any
// seed failed, 0 otherwise.
//
// Every run is bounded by a watchdog: 100 x duration simulated seconds
// and -max-events fired events (20 000 000 unless set), plus -max-wall
// of wall clock when given. A tripped budget or a panicking seed
// becomes a reported violation with a replayable repro instead of a
// hung or crashed harness.
//
// -bound-scale tightens the checked analytic bounds by a factor in
// (0, 1]; values below 1 demand more than the theorems promise and exist
// to prove the harness can fail, shrink and replay (see the acceptance
// tests). The tightening is embedded into the repros. A factor that
// would loosen the checks (above 1, negative or NaN) and a negative
// -max-events, -max-wall or -workers exit with status 2.
//
// Incoherent flag combinations exit with status 2 and a message naming
// both flags: -replay is incompatible with -seed, -seeds, -workers,
// -repro-dir and -bound-scale (a repro file fixes its own scenario,
// fault plan and bound scale).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"leaveintime/internal/simcheck"
)

// tightMargin is the observed/bound ratio the calculus tightness family
// must reach.
const tightMargin = 0.8

// flagConflict is one incoherent pair of the flag matrix: setting both
// (in an enabling state) exits with status 2. The message names both
// flags, a first and why.
type flagConflict struct{ a, b, why string }

// flagMatrix is the audited set of incoherent combinations. Pairs
// absent from the table compose: the watchdog budgets apply to every
// run, replay included.
var flagMatrix = []flagConflict{
	{"replay", "seed", "a repro file fixes its own scenario"},
	{"replay", "seeds", "a repro file fixes its own scenario"},
	{"replay", "workers", "replay is a single run"},
	{"replay", "repro-dir", "replay never writes repros"},
	{"replay", "bound-scale", "a repro embeds its own bound scale"},
}

// flagConflicts returns one message per incoherent combination among
// the enabled flags. enabled holds the flags that were explicitly set
// on the command line AND carry an enabling value (e.g. -workers 0 or
// -repro-dir "" are explicit but disable their feature, so they
// conflict with nothing).
func flagConflicts(enabled map[string]bool) []string {
	var msgs []string
	for _, c := range flagMatrix {
		if enabled[c.a] && enabled[c.b] {
			msgs = append(msgs, fmt.Sprintf("-%s is incompatible with -%s (%s)", c.b, c.a, c.why))
		}
	}
	return msgs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outcome is one checked case: its report and the repro written for it.
type outcome struct {
	rep   *simcheck.SeedReport
	repro string
}

// run is the command: it parses args, writes reports to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("litcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds      = fs.Int("seeds", 100, "number of seeds to check")
		seed0      = fs.Uint64("seed", 1, "first seed")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		reproDir   = fs.String("repro-dir", ".", "directory for repro JSON files (\"\" disables)")
		replay     = fs.String("replay", "", "replay a repro JSON file instead of generating seeds")
		boundScale = fs.Float64("bound-scale", 0, "tighten checked bounds by this factor (test hook; 0 = off)")
		maxEvents  = fs.Int64("max-events", 0, "watchdog: fired-event budget per run (0 = 20000000)")
		maxWall    = fs.Duration("max-wall", 0, "watchdog: wall-clock budget per run (0 = unlimited)")
		verbose    = fs.Bool("v", false, "print every report line, not only failures")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A value that would loosen a check or lift the watchdog is refused:
	// -bound-scale only tightens (NaN fails both comparisons), and a
	// negative budget would disable the ceiling it sets.
	for _, bad := range []struct {
		refused bool
		msg     string
	}{
		{!(*boundScale >= 0 && *boundScale <= 1), "-bound-scale must lie in [0, 1] (0 = off): it only tightens the checked bounds"},
		{*maxEvents < 0, "-max-events must not be negative"},
		{*maxWall < 0, "-max-wall must not be negative"},
		{*workers < 0, "-workers must not be negative"},
	} {
		if bad.refused {
			fmt.Fprintf(stderr, "litcheck: %s\n", bad.msg)
			return 2
		}
	}

	// The flag matrix: which flags were explicitly set with an enabling
	// value. Visit only sees flags present on the command line, so
	// defaults never trigger a conflict.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	enabled := map[string]bool{
		"replay":      explicit["replay"] && *replay != "",
		"seed":        explicit["seed"],
		"seeds":       explicit["seeds"],
		"workers":     explicit["workers"] && *workers != 0,
		"repro-dir":   explicit["repro-dir"] && *reproDir != "",
		"bound-scale": explicit["bound-scale"] && *boundScale > 0,
	}
	if msgs := flagConflicts(enabled); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintf(stderr, "litcheck: %s\n", m)
		}
		fs.Usage()
		return 2
	}

	opt := simcheck.Options{BoundScale: *boundScale, MaxEvents: *maxEvents, MaxWall: *maxWall}

	if *replay != "" {
		rep, err := simcheck.Replay(*replay, opt)
		if err != nil {
			fmt.Fprintf(stderr, "litcheck: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, rep.Format())
		if !rep.OK() {
			return 1
		}
		return 0
	}

	if *seeds <= 0 {
		fmt.Fprintln(stderr, "litcheck: -seeds must be positive")
		return 2
	}

	// checked books one case of a seed. A failing case becomes a repro:
	// Shrink reduces a clean one and hands a faulted one back whole, the
	// injected tightening folded into either, and the report printed is
	// the one the written file replays to.
	checked := func(rep *simcheck.SeedReport, generate func(uint64) simcheck.Case, seed uint64, suffix string) outcome {
		if rep.OK() || *reproDir == "" {
			return outcome{rep: rep}
		}
		sc, rep := simcheck.Shrink(generate(seed), opt)
		path := filepath.Join(*reproDir, fmt.Sprintf("litcheck_repro_%d%s.json", seed, suffix))
		if err := simcheck.WriteRepro(path, sc); err != nil {
			fmt.Fprintf(stderr, "litcheck: %v\n", err)
			return outcome{rep: rep}
		}
		return outcome{rep: rep, repro: path}
	}
	check := func(seed uint64) []outcome {
		clean, faulted := simcheck.CheckSeed(seed, opt)
		return []outcome{
			checked(clean, simcheck.Generate, seed, ""),
			checked(faulted, simcheck.GenerateChurn, seed, "_churn"),
		}
	}

	// Worker pool in the style of the sweep runner: seeds are CPU-bound
	// simulations, workers pull indices from a shared counter, and slot
	// i always holds seed0+i's outcomes so output is in seed order.
	n := *seeds
	results := make([][]outcome, n)
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = check(*seed0 + uint64(i))
			}
		}()
	}
	wg.Wait()

	failed := 0
	violations := 0
	for _, outs := range results {
		seedOK := true
		for _, o := range outs {
			if !o.rep.OK() {
				seedOK = false
				violations += len(o.rep.Violations)
				fmt.Fprint(stdout, o.rep.Format())
				if o.repro != "" {
					fmt.Fprintf(stdout, "  repro written to %s (replay with: litcheck -replay %s)\n",
						o.repro, o.repro)
				}
			} else if *verbose {
				fmt.Fprint(stdout, o.rep.Format())
			}
		}
		if !seedOK {
			failed++
		}
	}
	fmt.Fprintf(stdout, "litcheck: %d seeds, %d failed, %d violations\n", n, failed, violations)

	// The tightness half of the calculus acceptance: the bounds must be
	// approached by the designed family, not merely never exceeded.
	tr := simcheck.CalculusTightness(tightMargin)
	fmt.Fprint(stdout, tr.Format())
	if failed > 0 || !tr.Pass() {
		return 1
	}
	return 0
}
