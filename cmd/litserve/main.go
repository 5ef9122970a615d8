// Command litserve runs the Leave-in-Time scenario daemon.
//
// Usage:
//
//	litserve [-addr 127.0.0.1:8080] [-workers N] [-queue N]
//	         [-checkpoint-dir DIR] [-slice 0.25]
//
// A NaN, infinite or negative -slice and a negative -workers or -queue
// exit with status 2.
//
// It hosts the daemon until SIGTERM/SIGINT, then drains gracefully:
// in-flight scenario jobs stop at their next slice boundary and are
// checkpointed to -checkpoint-dir; a restarted daemon restores and
// re-runs them (runs are deterministic, so results are unchanged).
//
// The daemon's robustness contract is the live chaos battery,
// FuzzChaosSeed in internal/serve (go test ./internal/serve). Its speed
// is measured by the repository benchmark
// (go run ./bench -workload serve-t1).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leaveintime/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers       = flag.Int("workers", 0, "scenario workers (0 = default)")
		queue         = flag.Int("queue", 0, "scenario queue depth (0 = default)")
		checkpointDir = flag.String("checkpoint-dir", "", "drain checkpoint / repro directory (\"\" disables)")
		slice         = flag.Float64("slice", 0, "simulated seconds per worker control poll (0 = default)")
	)
	flag.Parse()
	// A NaN or infinite slice would run a job to its end with no poll
	// for kill, purge or drain; a negative value is no setting at all.
	for _, bad := range []struct {
		refused bool
		msg     string
	}{
		{!(*slice >= 0) || math.IsInf(*slice, 1), "-slice must be a finite, nonnegative number of seconds"},
		{*workers < 0, "-workers must not be negative"},
		{*queue < 0, "-queue must not be negative"},
	} {
		if bad.refused {
			fmt.Fprintf(os.Stderr, "litserve: %s\n", bad.msg)
			os.Exit(2)
		}
	}
	runServe(serve.Options{
		Addr:          *addr,
		Workers:       *workers,
		QueueDepth:    *queue,
		Slice:         *slice,
		CheckpointDir: *checkpointDir,
	})
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
