package event

import (
	"fmt"
	"time"
)

// Watchdog bounds a run: when any budget is exhausted the simulator
// stops before firing the next event and Tripped reports why. A
// tripped run leaves the simulator coherent — the clock, the pending
// count and every unfired event are intact — so partial telemetry can
// be collected and the same seed replayed under a debugger.
//
// MaxEvents and MaxSim are deterministic (a given seed either trips
// them or not, at the same event, every time). MaxWall is a
// wall-clock last resort for genuinely hung runs; its trip point
// depends on machine speed, so use generous values and rely on
// MaxEvents for reproducible budgets.
type Watchdog struct {
	// MaxEvents is the fired-event budget; 0 = unlimited.
	MaxEvents int64
	// MaxSim is the simulated-time ceiling in seconds; an event
	// scheduled beyond it trips the watchdog. 0 = unlimited.
	MaxSim float64
	// MaxWall is the wall-clock budget, checked every wallCheckStride
	// fired events; 0 = unlimited.
	MaxWall time.Duration
}

// wallCheckStride amortizes the time.Now() call of the wall-clock
// check: one syscall per this many fired events.
const wallCheckStride = 4096

// SetWatchdog arms (or, with the zero Watchdog, disarms) run budgets.
// The fired-event count and wall-clock anchor reset each call.
func (s *Simulator) SetWatchdog(w Watchdog) {
	s.wd = w
	s.wdArmed = w != Watchdog{}
	s.wdFired = 0
	s.wdTripped = ""
	s.wdStart = time.Time{}
}

// Tripped returns the reason the watchdog stopped the run, or "" if it
// has not tripped. It stays set until the next SetWatchdog call, and
// while set the simulator fires no further events.
func (s *Simulator) Tripped() string { return s.wdTripped }

// checkWatchdog decides whether the event due at t may fire; a
// non-empty return is the trip reason.
func (s *Simulator) checkWatchdog(t float64) string {
	if s.wd.MaxEvents > 0 && s.wdFired >= s.wd.MaxEvents {
		return fmt.Sprintf("event budget exhausted: %d events fired", s.wdFired)
	}
	if s.wd.MaxSim > 0 && t > s.wd.MaxSim {
		return fmt.Sprintf("sim-time budget exceeded: next event at t=%.9f > %.9f", t, s.wd.MaxSim)
	}
	if s.wd.MaxWall > 0 {
		if s.wdStart.IsZero() {
			s.wdStart = time.Now()
		} else if s.wdFired%wallCheckStride == 0 {
			if el := time.Since(s.wdStart); el > s.wd.MaxWall {
				return fmt.Sprintf("wall-clock budget exceeded: %v > %v after %d events", el.Round(time.Millisecond), s.wd.MaxWall, s.wdFired)
			}
		}
	}
	return ""
}
