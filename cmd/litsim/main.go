// Command litsim runs the Leave-in-Time paper's simulated experiments
// (Figures 7 through 17) and prints the series each figure plots.
//
// Usage:
//
//	litsim -experiment fig7 [-duration 300] [-seed 1]
//	litsim -experiment all
//
// Experiments: fig7, fig8, fig9, fig10, fig11, fig12 (alias of fig8's
// buffer view), fig14 (figures 14-17, procedure 2), fig14ac1 (same
// under procedure 1), ups (the NSDI '16 universal-packet-scheduling
// replay: baseline schedules reproduced by LSTF and by LiT from slack
// carried in the packet header), section4, comparison (Section 4 run
// live: the CROSS tagged session under every discipline, each beside
// its own bound), metro, all.
//
// metro runs the metro-scale ring-of-rings workload (208 switches by
// default) as one serial simulation; its report reads shards=1.
//
// Durations default to the paper's (300 s for the MIX sweeps, 600 s for
// the CROSS distribution runs); pass -duration to shorten exploratory
// runs. Runs are deterministic in (-duration, -seed).
//
// -telemetry out.json additionally dumps the run's internal counters
// (event engine, packet pool, per-port arrivals/transmissions/drops/
// utilization, scheduler regulation and deadline misses, admission and
// fault outcomes) as JSON; "-" writes them to stdout. It is supported
// for fig7 (a JSON array, one snapshot per sweep point) and for
// fig8/fig12/fig13 (a single snapshot). Telemetry never changes the
// simulated results.
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

	lit "leaveintime"
)

// exit status 3 marks a watchdog abort or recovered panic, distinct
// from usage errors (2) and I/O failures (1).
const exitCrash = 3

// reproCommand renders the exact invocation that replays this run.
func reproCommand() string {
	return strings.Join(os.Args, " ")
}

func main() {
	var (
		exp       = flag.String("experiment", "all", "which experiment to run (fig7, fig8, fig9, fig10, fig11, fig12, fig14, fig14ac1, perhop, establish, blocking, saturation, ups, section4, comparison, metro, all)")
		duration  = flag.Float64("duration", 0, "run length in simulated seconds (0 = the paper's duration)")
		seed      = flag.Uint64("seed", 1, "random seed")
		asPlot    = flag.Bool("plot", false, "render distribution figures as terminal charts")
		asJSON    = flag.Bool("json", false, "emit machine-readable JSON instead of text (fig8-fig13)")
		telemetry = flag.String("telemetry", "", "write a JSON telemetry snapshot to this file (\"-\" for stdout); fig7/fig8/fig12/fig13 only")
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

	if *telemetry != "" {
		switch *exp {
		case "fig7", "fig8", "fig12", "fig13":
		default:
			fmt.Fprintf(os.Stderr, "-telemetry supports fig7, fig8, fig12 and fig13, not %q\n", *exp)
			os.Exit(2)
		}
	}
	// Zero means the paper's duration; NaN and +Inf would run forever.
	if d := *duration; !(d >= 0) || math.IsInf(d, 1) {
		fmt.Fprintf(os.Stderr, "-duration must be nonnegative and finite, got %g\n", d)
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

	run := func(name string) bool { return *exp == name || *exp == "all" }
	dur := func(paper float64) float64 {
		if *duration > 0 {
			return *duration
		}
		return paper
	}

	any := false
	if run("fig7") {
		any = true
		var regs []*lit.MetricsRegistry
		if *telemetry != "" {
			regs = make([]*lit.MetricsRegistry, len(lit.Fig7AOffValues))
			for i := range regs {
				regs[i] = lit.NewMetricsRegistry()
			}
		}
		fmt.Print(lit.RunFig7Observed(dur(300), *seed, regs).Format())
		fmt.Println()
		if regs != nil {
			type pointTelemetry struct {
				AOff     float64              `json:"a_off_s"`
				Snapshot *lit.MetricsSnapshot `json:"snapshot"`
			}
			points := make([]pointTelemetry, len(regs))
			for i, reg := range regs {
				points[i] = pointTelemetry{AOff: lit.Fig7AOffValues[i], Snapshot: reg.Snapshot(dur(300))}
			}
			writeTelemetry(*telemetry, points)
		}
	}
	if run("fig8") || run("fig12") || run("fig13") {
		any = true
		var reg *lit.MetricsRegistry
		if *telemetry != "" {
			reg = lit.NewMetricsRegistry()
		}
		res := lit.RunFig8Observed(dur(600), *seed, reg)
		if reg != nil {
			writeTelemetry(*telemetry, reg.Snapshot(dur(600)))
		}
		switch {
		case *asJSON:
			emitJSON(res)
		case *asPlot:
			fmt.Print(res.Plot())
		default:
			if *exp != "fig12" && *exp != "fig13" {
				fmt.Print(res.Format())
			}
			fmt.Print(res.FormatBuffers())
		}
		fmt.Println()
	}
	if run("fig9") {
		any = true
		res := lit.RunFig9(dur(600), *seed)
		switch {
		case *asJSON:
			emitJSON(res)
		case *asPlot:
			fmt.Printf("Figure 9:\n%s", res.Plot())
		default:
			fmt.Print("Figure 9: ", res.Format())
		}
		fmt.Println()
	}
	if run("fig10") {
		any = true
		res := lit.RunFig10(dur(600), *seed)
		switch {
		case *asJSON:
			emitJSON(res)
		case *asPlot:
			fmt.Printf("Figure 10:\n%s", res.Plot())
		default:
			fmt.Print("Figure 10: ", res.Format())
		}
		fmt.Println()
	}
	if run("fig11") {
		any = true
		res := lit.RunFig11(dur(600), *seed)
		switch {
		case *asJSON:
			emitJSON(res)
		case *asPlot:
			fmt.Printf("Figure 11:\n%s", res.Plot())
		default:
			fmt.Print("Figure 11: ", res.Format())
		}
		fmt.Println()
	}
	if run("fig14") {
		any = true
		fmt.Print(lit.RunFig14to17(dur(300), *seed, 2).Format())
		fmt.Println()
	}
	if run("fig14ac1") {
		any = true
		fmt.Print(lit.RunFig14to17(dur(300), *seed, 1).Format())
		fmt.Println()
	}
	if run("perhop") {
		any = true
		fmt.Print(lit.RunPerHop(dur(60), *seed).Format())
		fmt.Println()
	}
	if run("establish") {
		any = true
		fmt.Print(lit.RunEstablishment(*seed, 0.5e-3).Format())
		fmt.Println()
	}
	if run("blocking") {
		any = true
		fmt.Print(lit.RunCallBlocking(dur(600), *seed, 40, 2).Format())
		fmt.Println()
	}
	if run("saturation") {
		any = true
		fmt.Print(lit.RunSaturation(dur(30), *seed, 8, 5).Format())
		fmt.Println()
	}
	if run("metro") {
		any = true
		res, err := lit.RunMetro(lit.MetroOptions{Duration: dur(10), Seed: *seed, Metrics: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "litsim: metro: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Format())
		fmt.Println()
	}
	if run("ups") {
		any = true
		fmt.Print(lit.RunUPS(dur(30), *seed).Format())
		fmt.Println()
	}
	if run("section4") {
		any = true
		fmt.Print(lit.RunStopAndGoComparison(0.01, 1536e3, 5).Format())
		pg := lit.RunPGPSComparison(32e3, 424, 424, 1536e3, 1e-3, 5)
		fmt.Printf("Section 4: eq. (15) vs PGPS bound on the Figure 6 route: LiT %.6g s, PGPS %.6g s\n", pg.LiT, pg.PGPS)
		fmt.Println()
	}
	if run("comparison") {
		any = true
		fmt.Print(lit.RunComparison(dur(60), *seed, 0.650).Format())
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func emitJSON(result any) {
	data, err := lit.ResultJSON(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
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
