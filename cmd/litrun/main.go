// Command litrun executes a declarative network scenario described in
// JSON (see internal/config for the schema): it builds the Leave-in-Time
// network, admits every session, simulates, and reports per-session
// measurements against the eq. 12/17 bounds. A session the document's
// fault plan churns, or routes over a port the plan takes down, reads
// "exempt" in the holds column: its bounds are not owed.
//
// Usage:
//
//	litrun scenario.json
//	litrun -json scenario.json               # machine-readable output
//	litrun -telemetry run.json scenario.json # also dump run telemetry
//
// -telemetry writes a JSON snapshot of the run's internal counters
// (event engine, packet pool, per-port arrivals/transmissions/drops/
// utilization, scheduler regulation and deadline misses, admission
// outcomes) to the given file; "-" writes it to stdout. The simulated
// results are identical with and without telemetry.
//
// An example scenario lives at examples/scenario.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"leaveintime/internal/config"
	"leaveintime/internal/metrics"
)

func main() {
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	telemetry := flag.String("telemetry", "", "write a JSON telemetry snapshot of the run to this file (\"-\" for stdout)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: litrun [-json] [-telemetry file] scenario.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scenario, err := config.Parse(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var reg *metrics.Registry
	if *telemetry != "" {
		reg = metrics.NewRegistry()
	}
	res, err := scenario.RunWithMetrics(reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if reg != nil {
		if err := writeTelemetry(*telemetry, reg.Snapshot(scenario.Duration)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		fmt.Println()
		return
	}
	fmt.Printf("scenario ran for %.0f simulated seconds\n\n", res.Duration)
	fmt.Printf("%-16s %10s %12s %12s %12s %14s %8s\n",
		"session", "pkts", "max(ms)", "mean(ms)", "jitter(ms)", "bound(ms)", "holds")
	for _, s := range res.Sessions {
		bound := "-"
		holds := "-"
		if s.DelayBound > 0 {
			bound = fmt.Sprintf("%.2f", s.DelayBound*1e3)
			holds = fmt.Sprintf("%v", s.BoundHolds)
			if s.Exempt {
				holds = "exempt"
			}
		}
		fmt.Printf("%-16s %10d %12.2f %12.2f %12.2f %14s %8s\n",
			s.Name, s.Delivered, s.MaxDelay*1e3, s.MeanDelay*1e3, s.Jitter*1e3, bound, holds)
	}
}

func writeTelemetry(path string, snap any) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
