// Command litcheck is the randomized conformance harness driver: it
// generates one scenario per seed, runs it through every discipline in
// the repository, and checks the paper's invariant battery (delay/
// jitter/buffer bounds, loss-freedom, deadline ordering, work
// conservation, packet conservation, pool balance, capacity return,
// LiT ≡ VirtualClock, approximate-queue divergence, telemetry
// agreement).
//
// Usage:
//
//	litcheck -seeds 200                 # check seeds 1..200
//	litcheck -seed 17 -seeds 5          # check seeds 17..21
//	litcheck -churn -seeds 200          # + a fault/churn plan per seed
//	litcheck -classes -seeds 200        # + aggregate-class battery
//	litcheck -calculus -seeds 200       # + network-calculus battery
//	litcheck -replay repro.json         # re-check a repro or any litrun document
//	litcheck -shards 4 -seeds 25        # shard-invariance battery
//
// Seeds run on a GOMAXPROCS worker pool; reports print in seed order
// and each seed's report is deterministic (same seed, byte-identical
// output). On violation the failing scenario is shrunk to a minimal
// form and written as a replayable JSON repro under -repro-dir: the
// scenario document, as litrun and litserve accept it, with the
// harness's own keys in a "check" object beside it. -replay takes such
// a repro, any scenario document (bound checks then apply to the
// sessions that declare b0, the rest of the battery to all), or a repro
// in the dialect litcheck wrote before it shared the document. The exit
// status is 1 if any seed failed, 0 otherwise.
//
// There is one battery. A seed's scenario runs under every discipline
// with its fault plan injected — nothing, on a clean network — and every
// run ends by returning its reservations through the signaling
// exchange, so each is checked for packet conservation counted from the
// trace, pool drain and reserved capacity back to exactly zero at every
// controller; the reference Leave-in-Time run is also checked against
// the analytic bounds and for trace/metrics/probe agreement.
//
// -churn attaches a deterministic fault plan to every seed — link and
// node outages, source stalls, and mid-run session release and
// re-SETUP through the signaling exchange. The bound checks then apply
// to the sessions the plan leaves alone, and the four checks that need
// an undisturbed network are skipped: the approximate queue's delay
// margin, LiT ≡ VirtualClock, -classes and -calculus. Chaos repros are
// written unshrunk: the fault plan is part of the scenario, so the
// repro replays the identical chaos.
//
// Every run is bounded by a watchdog: 100 x duration simulated seconds
// and -max-events fired events (20 000 000 unless set), plus -max-wall
// of wall clock when given. A tripped budget or a panicking seed
// becomes a reported violation with a replayable repro instead of a
// hung or crashed harness.
//
// -bound-scale tightens the checked analytic bounds by a factor; values
// below 1 demand more than the theorems promise and exist to prove the
// harness can fail, shrink and replay (see the acceptance tests).
//
// -classes additionally runs every clean seed through the aggregate-
// class battery: the scenario's sessions mapped onto a few classes
// with one regulator and one K clock per class (core.Aggregate),
// checked against the degraded aggregate bounds (see
// internal/simcheck). The worst degradation factor is printed on the
// seed's report line.
//
// -calculus additionally runs every clean seed through the network-
// calculus battery: the scenario's flows propagated as piecewise-
// linear arrival curves, the resulting FIFO delay and per-flow backlog
// bounds checked against an FCFS run of the identical arrivals, and
// the batch-admission fast path differentially checked against
// sequential admission (see internal/simcheck). After the seeds it
// runs the designed tightness family — N synchronized CBR sessions
// saturating one link — and demands the observed worst delay approach
// the analytic bound within -tight-margin: the bounds must be not just
// sound but tight. A tightness miss fails the run.
//
// -shards N (N >= 2) switches to the shard-invariance battery: each
// seed's scenario runs under exact Leave-in-Time on the
// conservative-parallel runtime at shards=1 and shards=N, and the two
// runs must agree byte for byte — canonical traces, per-session
// statistics, checker violation sets, merged telemetry. An invalid
// count exits with status 2 and usage.
//
// Incoherent flag combinations exit with status 2 and a message naming
// both flags. -shards is incompatible with -churn (fault plans address
// a single engine), -replay, -repro-dir (invariance divergences have
// no repro path), -bound-scale (the battery checks agreement, not
// bounds) and -classes; -replay is incompatible with -seed, -seeds,
// -workers, -repro-dir, -bound-scale, -churn, -classes and -calculus
// (a repro file fixes its own scenario, fault plan, bound scale and
// batteries); -classes and -calculus are incompatible with -churn.
// -seed composes with -shards (it sets the battery's first seed), and
// -bound-scale composes with -churn (the tightening is embedded into
// chaos repros).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"leaveintime/internal/simcheck"
)

// flagConflict is one incoherent pair of the flag matrix: setting both
// (in an enabling state) exits with status 2. The message names both
// flags, a first and why.
type flagConflict struct{ a, b, why string }

// flagMatrix is the audited set of incoherent combinations. Pairs
// absent from the table compose: -seed sets the shard battery's first
// seed, -bound-scale tightens the bounds of the sessions a -churn plan
// leaves alone, and the watchdog budgets apply to every run, replay
// included.
var flagMatrix = []flagConflict{
	{"shards", "churn", "fault plans are serial-only"},
	{"shards", "replay", "the invariance battery generates its own scenarios"},
	{"shards", "repro-dir", "invariance divergences have no shrink/repro path"},
	{"shards", "bound-scale", "the invariance battery checks agreement, not bounds"},
	{"shards", "classes", "the invariance battery runs exact Leave-in-Time only"},
	{"replay", "seed", "a repro file fixes its own scenario"},
	{"replay", "seeds", "a repro file fixes its own scenario"},
	{"replay", "workers", "replay is a single run"},
	{"replay", "repro-dir", "replay never writes repros"},
	{"replay", "bound-scale", "a repro embeds its own bound scale"},
	{"replay", "churn", "a repro embeds its own fault plan"},
	{"replay", "classes", "a repro replays the battery it was written under"},
	{"churn", "classes", "the class battery checks clean-network bounds"},
	{"shards", "calculus", "the invariance battery runs exact Leave-in-Time only"},
	{"replay", "calculus", "a repro replays the battery it was written under"},
	{"churn", "calculus", "the calculus battery checks clean-network bounds"},
}

// flagConflicts returns one message per incoherent combination among
// the enabled flags. enabled holds the flags that were explicitly set
// on the command line AND carry an enabling value (e.g. -shards 1 or
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

func main() {
	var (
		seeds      = flag.Int("seeds", 100, "number of seeds to check")
		seed0      = flag.Uint64("seed", 1, "first seed")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		reproDir   = flag.String("repro-dir", ".", "directory for shrunken repro JSON files (\"\" disables)")
		replay     = flag.String("replay", "", "replay a repro JSON file instead of generating seeds")
		boundScale = flag.Float64("bound-scale", 0, "tighten checked bounds by this factor (test hook; 0 = off)")
		churn      = flag.Bool("churn", false, "attach a deterministic fault/churn plan to every seed")
		maxEvents  = flag.Int64("max-events", 0, "watchdog: fired-event budget per run (0 = 20000000)")
		maxWall    = flag.Duration("max-wall", 0, "watchdog: wall-clock budget per run (0 = unlimited)")
		shards     = flag.Int("shards", 1, "shard-invariance battery: compare shards=1 against this shard count (1 = serial battery)")
		classes    = flag.Bool("classes", false, "additionally run the aggregate-class battery per seed (degraded-bound checks)")
		calculus   = flag.Bool("calculus", false, "additionally run the network-calculus battery per seed (curve bounds vs FCFS) and the tightness family")
		tightMarg  = flag.Float64("tight-margin", 0.8, "calculus tightness: required observed/bound ratio (with -calculus)")
		verbose    = flag.Bool("v", false, "print every seed's report line, not only failures")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "litcheck: -shards must be at least 1, got %d\n", *shards)
		flag.Usage()
		os.Exit(2)
	}

	// The flag matrix: which flags were explicitly set with an enabling
	// value. flag.Visit only sees flags present on the command line, so
	// defaults never trigger a conflict.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	enabled := map[string]bool{
		"shards":      explicit["shards"] && *shards > 1,
		"churn":       explicit["churn"] && *churn,
		"replay":      explicit["replay"] && *replay != "",
		"classes":     explicit["classes"] && *classes,
		"seed":        explicit["seed"],
		"seeds":       explicit["seeds"],
		"workers":     explicit["workers"] && *workers != 0,
		"repro-dir":   explicit["repro-dir"] && *reproDir != "",
		"bound-scale": explicit["bound-scale"] && *boundScale > 0,
		"calculus":    explicit["calculus"] && *calculus,
	}
	if msgs := flagConflicts(enabled); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintf(os.Stderr, "litcheck: %s\n", m)
		}
		flag.Usage()
		os.Exit(2)
	}

	opt := simcheck.Options{
		BoundScale: *boundScale,
		Churn:      *churn,
		ClassMode:  *classes,
		Calculus:   *calculus,
		MaxEvents:  *maxEvents,
		MaxWall:    *maxWall,
	}

	if *replay != "" {
		rep, err := simcheck.Replay(*replay, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "litcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	if *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "litcheck: -seeds must be positive")
		os.Exit(2)
	}
	reports := make([]*simcheck.SeedReport, *seeds)
	repros := make([]string, *seeds)

	// Worker pool in the style of the sweep runner: seeds are CPU-bound
	// simulations, workers pull indices from a shared counter, and slot
	// i always holds seed0+i's report so output is in seed order.
	n := *seeds
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
				seed := *seed0 + uint64(i)
				if *shards > 1 {
					// Invariance divergences have no shrink/repro path:
					// the reproduction command is the seed itself.
					reports[i] = simcheck.CheckShardInvariance(seed, *shards, opt)
					continue
				}
				rep := simcheck.CheckSeed(seed, opt)
				if !rep.OK() && *reproDir != "" {
					// Chaos scenarios are written as-is: shrink
					// transformations (dropping sessions, trimming
					// routes) would orphan the fault plan's references
					// to the entities they remove, and the plan itself
					// is the thing a repro must preserve.
					sc := simcheck.Generate(seed)
					if *churn {
						sc = simcheck.GenerateChurn(seed)
						// An injected tightening is part of what must
						// replay; the shrink path embeds it the same way.
						if opt.BoundScale > 0 {
							sc.Check.BoundScale = opt.BoundScale
						}
					} else {
						var srep *simcheck.SeedReport
						sc, srep = simcheck.Shrink(sc, opt)
						rep = srep
					}
					path := filepath.Join(*reproDir, fmt.Sprintf("litcheck_repro_%d.json", seed))
					if err := simcheck.WriteRepro(path, sc); err != nil {
						fmt.Fprintf(os.Stderr, "litcheck: %v\n", err)
					} else {
						repros[i] = path
					}
				}
				reports[i] = rep
			}
		}()
	}
	wg.Wait()

	failed := 0
	violations := 0
	for i, rep := range reports {
		if !rep.OK() {
			failed++
			violations += len(rep.Violations)
			fmt.Print(rep.Format())
			if repros[i] != "" {
				fmt.Printf("  repro written to %s (replay with: litcheck -replay %s)\n",
					repros[i], repros[i])
			}
		} else if *verbose {
			fmt.Print(rep.Format())
		}
	}
	fmt.Printf("litcheck: %d seeds, %d failed, %d violations\n", n, failed, violations)

	// The tightness half of the calculus acceptance: the bounds must be
	// approached by the designed family, not merely never exceeded.
	tightFailed := false
	if *calculus && *shards == 1 {
		tr := simcheck.CalculusTightness(*tightMarg)
		fmt.Print(tr.Format())
		tightFailed = !tr.Pass()
	}
	if failed > 0 || tightFailed {
		os.Exit(1)
	}
}
