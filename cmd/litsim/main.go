// Command litsim runs the Leave-in-Time paper's simulated experiments
// (Figures 7 through 17 and the Section 4 comparisons) and prints the
// series each figure plots.
//
// Usage:
//
//	litsim -experiment fig7 [-duration 300] [-seed 1]
//	litsim -experiment all
//
// Experiments, in the order -experiment all runs them, with the paper's
// duration (the default) and the flags beyond text each offers:
//
//	fig7 (300 s; -telemetry)
//		Figure 7: maximum delay and jitter of a MIX ON-OFF session versus a_OFF (telemetry: one snapshot per point)
//	fig8, fig12, fig13 (600 s; -json -plot -telemetry)
//		Figures 8, 12 and 13: CROSS delay with and without jitter control, then the buffer distributions, which fig12 and fig13 print alone
//	fig9 (600 s; -json -plot)
//		Figure 9: a Poisson session's delay tail (utilization 0.7) against the ineq. 16 bounds
//	fig10 (600 s; -json -plot)
//		Figure 10: the same for a 32 kbit/s session (utilization 0.33)
//	fig11 (600 s; -json -plot)
//		Figure 11: Figure 10 with deterministic cross traffic
//	fig14 (300 s)
//		Figures 14-17: two delay classes under admission control procedure 2
//	fig14ac1 (300 s)
//		the same under procedure 1
//	perhop (60 s)
//		Figure 8's run traced: delay hop by hop
//	establish
//		the 116 MIX sessions signalled hop by hop, 0.5 ms processing a node
//	blocking (600 s)
//		call blocking under procedure 1 against Erlang B: 40 Erl offered, 2 s holding
//	saturation (30 s)
//		scheduler saturation: 8 sessions on one T1, d admissible and then 5 times too small
//	metro (10 s)
//		the ring-of-rings metro (208 switches), one serial simulation
//	ups (30 s)
//		the NSDI '16 universal packet scheduling replay: baseline schedules replayed by LSTF and by LiT from slack in the header
//	section4
//		Section 4: the Stop-and-Go and PGPS bound comparisons
//	comparison (60 s)
//		Section 4 run live: the CROSS tagged session under every discipline, each beside its own bound
//
// The list is rendered from the table, scenarios.Experiments, and
// TestDocListsExperiments prints it afresh when the two part. An alias
// offers what its row offers, -plot aside. Pass -duration to shorten
// exploratory runs.
//
// -json and -plot replace the text; they exclude each other, and an
// experiment that does not offer one refuses it (exit 2), as it does
// -telemetry. -telemetry out.json also dumps the run's internal
// counters (event engine, packet pool, per-port arrivals/transmissions/
// drops/utilization, scheduler regulation and deadline misses,
// admission and fault outcomes) as JSON; "-" writes them to stdout
// after the text. Telemetry never changes the simulated results.
//
// -max-wall bounds the process with a wall-clock watchdog. Every run
// is deterministic in (-experiment, -duration, -seed), so a hang or a
// panic is converted into the exact command that reproduces it (plus
// the stack, for panics) on stderr with exit status 3, instead of a
// lost process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"leaveintime/internal/scenarios"
)

// exit status 3 marks a watchdog abort or recovered panic, distinct
// from usage errors (2) and I/O failures (1).
const exitCrash = 3

// reproCommand renders the exact invocation that replays this run.
func reproCommand() string {
	return strings.Join(os.Args, " ")
}

// offering lists the names that offer flag, as "a, b and c".
func offering(flag string) string {
	var names []string
	for _, name := range scenarios.Names() {
		if scenarios.Offers(name, flag) {
			names = append(names, name)
		}
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " and " + names[last]
}

func main() {
	var (
		exp       = flag.String("experiment", "all", "which experiment to run: "+strings.Join(scenarios.Names(), ", "))
		duration  = flag.Float64("duration", 0, "run length in simulated seconds (0 = the paper's duration)")
		seed      = flag.Uint64("seed", 1, "random seed")
		asPlot    = flag.Bool("plot", false, "render distribution figures as terminal charts ("+offering("plot")+")")
		asJSON    = flag.Bool("json", false, "emit machine-readable JSON instead of text ("+offering("json")+")")
		telemetry = flag.String("telemetry", "", "write a JSON telemetry snapshot to this file (\"-\" for stdout); "+offering("telemetry")+" only")
		maxWall   = flag.Duration("max-wall", 0, "watchdog: abort with a reproduction command after this much wall-clock time (0 = unlimited)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	flag.Parse()

	if *maxWall > 0 {
		time.AfterFunc(*maxWall, func() {
			fmt.Fprintf(os.Stderr, "litsim: wall-clock budget %v exceeded (hung run)\nreproduce with: %s\n",
				*maxWall, reproCommand())
			os.Exit(exitCrash)
		})
	}
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "litsim: panic: %v\n%s\nreproduce with: %s\n",
				r, debug.Stack(), reproCommand())
			os.Exit(exitCrash)
		}
	}()

	if *asJSON && *asPlot {
		fmt.Fprintln(os.Stderr, "-json and -plot exclude each other")
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"telemetry", *telemetry != ""}, {"json", *asJSON}, {"plot", *asPlot}} {
		if f.set && !scenarios.Offers(*exp, f.name) {
			fmt.Fprintf(os.Stderr, "-%s supports %s, not %q\n", f.name, offering(f.name), *exp)
			os.Exit(2)
		}
	}
	// Zero means the paper's duration; NaN and +Inf would run forever.
	if d := *duration; !(d >= 0) || math.IsInf(d, 1) {
		fmt.Fprintf(os.Stderr, "-duration must be nonnegative and finite, got %g\n", d)
		os.Exit(2)
	}
	rows, alias := scenarios.Select(*exp)
	if rows == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	for _, e := range rows {
		d := e.Paper
		if *duration > 0 {
			d = *duration
		}
		out, err := e.Run(d, *seed, *telemetry != "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "litsim: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		switch {
		case *asJSON:
			data, err := scenarios.JSON(out.JSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "json: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", data)
		case *asPlot:
			fmt.Print(out.Plot)
		case alias:
			fmt.Print(out.AliasText)
		default:
			fmt.Print(out.Text)
		}
		fmt.Println()
		if out.Telemetry != nil {
			writeTelemetry(*telemetry, out.Telemetry)
		}
	}
}

func writeTelemetry(path string, snap any) {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		os.Exit(1)
	}
}
