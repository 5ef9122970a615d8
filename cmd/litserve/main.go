// Command litserve runs the Leave-in-Time scenario daemon and its
// self-test drivers.
//
// Usage:
//
//	litserve [-mode serve] [-addr :8080] [-workers N] [-queue N]
//	         [-checkpoint-dir DIR] [-slice 0.25]
//	litserve -mode chaos [-seeds 100] [-seed 1] [-dir DIR]
//
// serve hosts the daemon until SIGTERM/SIGINT, then drains gracefully:
// in-flight scenario jobs stop at their next slice boundary and are
// checkpointed to -checkpoint-dir; a restarted daemon restores and
// re-runs them (runs are deterministic, so results are unchanged).
//
// chaos runs the deterministic live chaos battery (kills, stalls,
// malformed and duplicate requests, clock skew, overload, drain with
// restart, watchdog repros, goroutine-leak check) once per seed and
// exits nonzero on the first failing seed's report.
//
// The daemon's speed is measured by the repository benchmark
// (go run ./bench -workload serve-t1), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leaveintime/internal/serve"
)

// flagConflict names two flags that cannot be used together (litcheck
// precedent: the audit exits 2 with a message naming both flags and
// why).
type flagConflict struct{ a, b, why string }

// flagMatrix is the audited set of incoherent combinations: every
// flag owned by one mode conflicts with selecting the other.
var flagMatrix = []flagConflict{
	{"mode=serve", "seeds", "seed sweeps belong to -mode chaos"},
	{"mode=serve", "seed", "seed sweeps belong to -mode chaos"},
	{"mode=serve", "dir", "the working directory belongs to -mode chaos"},
	{"mode=chaos", "addr", "the battery manages its own daemons on ephemeral ports"},
	{"mode=chaos", "checkpoint-dir", "the battery manages its own checkpoint directories under -dir"},
	{"mode=chaos", "workers", "the battery fixes its daemon shapes for determinism"},
	{"mode=chaos", "queue", "the battery fixes its daemon shapes for determinism"},
	{"mode=chaos", "slice", "the battery fixes its daemon shapes for determinism"},
}

// flagConflicts returns one message per incoherent combination.
// enabled holds the flags explicitly set on the command line; mode is
// the resolved -mode value. A flag is checked against the matrix rows
// of every mode it was NOT run under.
func flagConflicts(mode string, enabled map[string]bool) []string {
	var msgs []string
	key := "mode=" + mode
	for _, c := range flagMatrix {
		if c.a == key && enabled[c.b] {
			msgs = append(msgs, fmt.Sprintf("-%s is incompatible with -mode %s (%s)", c.b, mode, c.why))
		}
	}
	return msgs
}

func main() {
	var (
		mode          = flag.String("mode", "serve", "serve | chaos")
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address (serve mode)")
		workers       = flag.Int("workers", 0, "scenario workers (0 = default)")
		queue         = flag.Int("queue", 0, "scenario queue depth (0 = default)")
		checkpointDir = flag.String("checkpoint-dir", "", "drain checkpoint / repro directory (serve mode; \"\" disables)")
		slice         = flag.Float64("slice", 0, "simulated seconds per worker control poll (0 = default)")
		seeds         = flag.Int("seeds", 100, "chaos battery seed count (chaos mode)")
		seed0         = flag.Uint64("seed", 1, "first chaos seed (chaos mode)")
		dir           = flag.String("dir", "", "chaos working directory (default: a temp dir)")
	)
	flag.Parse()

	enabled := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { enabled[f.Name] = true })
	if *mode != "serve" && *mode != "chaos" {
		fmt.Fprintf(os.Stderr, "litserve: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if msgs := flagConflicts(*mode, enabled); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintf(os.Stderr, "litserve: %s\n", m)
		}
		os.Exit(2)
	}

	opts := serve.Options{
		Addr:          *addr,
		Workers:       *workers,
		QueueDepth:    *queue,
		Slice:         *slice,
		CheckpointDir: *checkpointDir,
	}

	switch *mode {
	case "serve":
		runServe(opts)
	case "chaos":
		runChaos(*seeds, *seed0, *dir)
	}
}

// runServe hosts the daemon until SIGTERM/SIGINT, then drains.
func runServe(opts serve.Options) {
	d := serve.New(opts)
	if err := d.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "litserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("litserve: serving on %s\n", d.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Printf("litserve: %v — draining\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "litserve: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("litserve: drained")
}

// runChaos sweeps the live battery over seeds.
func runChaos(seeds int, seed0 uint64, dir string) {
	if seeds < 1 {
		fmt.Fprintf(os.Stderr, "litserve: -seeds must be at least 1, got %d\n", seeds)
		os.Exit(2)
	}
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "litserve-chaos")
		if err != nil {
			fmt.Fprintf(os.Stderr, "litserve: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
	}
	for i := 0; i < seeds; i++ {
		seed := seed0 + uint64(i)
		report, err := serve.RunChaos(seed, fmt.Sprintf("%s/seed-%d", dir, seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "litserve: seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		if !report.AllOK() {
			for _, p := range report.Probes {
				if !p.OK {
					fmt.Fprintf(os.Stderr, "litserve: seed %d probe %s: %s\n", seed, p.Name, p.Detail)
				}
			}
			os.Exit(1)
		}
		fmt.Printf("seed %d: %d probes ok\n", seed, len(report.Probes))
	}
	fmt.Printf("chaos battery clean over %d seed(s)\n", seeds)
}
