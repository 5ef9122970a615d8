package simcheck

import (
	"fmt"
	"strings"
)

// Violation is one failed invariant check.
type Violation struct {
	// Check names the invariant: delay-bound, jitter-bound,
	// buffer-bound, loss-free, deadline-inversion, work-conservation,
	// eligible-idle, pool-balance, conservation, emit-divergence,
	// vc-equivalence, approx-divergence, telemetry-agreement,
	// engine-sanity, admission-replay, capacity-leak; and, for a run or
	// a battery that did not finish, watchdog and panic.
	Check      string `json:"check"`
	Discipline string `json:"discipline"`
	Session    int    `json:"session,omitempty"`
	Port       string `json:"port,omitempty"`
	Detail     string `json:"detail"`
}

// DiscSummary is one discipline's packet totals for the report.
type DiscSummary struct {
	Name      string `json:"name"`
	Emitted   int64  `json:"emitted"`
	Delivered int64  `json:"delivered"`
	Dropped   int64  `json:"dropped"`
}

// SeedReport is the outcome of checking one scenario.
type SeedReport struct {
	Seed     uint64 `json:"seed"`
	Topology string `json:"topology"`
	Links    int    `json:"links"`
	Sessions int    `json:"sessions"`
	Proc     int    `json:"proc"`
	Special  bool   `json:"special,omitempty"`
	// Churn marks a scenario that carries a fault plan.
	Churn       bool          `json:"churn,omitempty"`
	Duration    float64       `json:"duration_s"`
	Disciplines []DiscSummary `json:"disciplines"`
	Violations  []Violation   `json:"violations,omitempty"`

	// AggChecked counts sessions checked against the degraded
	// aggregate-class bounds (clean cases only), and AggDegrade is the
	// worst degradation factor observed: degraded aggregate delay bound
	// over the paper's per-session eq.-12 bound.
	AggChecked int     `json:"agg_checked,omitempty"`
	AggDegrade float64 `json:"agg_degrade,omitempty"`

	// CalcChecked counts sessions checked against the curve-propagated
	// network-calculus bounds (clean cases only), and CalcTight is
	// how closely the simulation approached them: observed delay over
	// analytic bound, maximized over checked sessions.
	CalcChecked int     `json:"calc_checked,omitempty"`
	CalcTight   float64 `json:"calc_tight,omitempty"`
}

// OK reports whether every invariant held.
func (r *SeedReport) OK() bool { return len(r.Violations) == 0 }

func (r *SeedReport) add(v Violation) { r.Violations = append(r.Violations, v) }

func (r *SeedReport) summarize(res *runResult) {
	s := DiscSummary{Name: res.Name}
	for _, sr := range res.Sessions {
		s.Emitted += sr.Emitted
		s.Delivered += sr.Delivered
		s.Dropped += sr.Dropped
	}
	r.Disciplines = append(r.Disciplines, s)
}

// Format renders the report as deterministic text: one header line,
// then one line per violation. Identical scenarios always format
// identically (no map ordering, no wall-clock).
func (r *SeedReport) Format() string {
	var b strings.Builder
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	var pkts int64
	if len(r.Disciplines) > 0 {
		pkts = r.Disciplines[0].Emitted
	}
	mode := ""
	if r.Churn {
		mode = " churn"
	}
	agg := ""
	if r.AggChecked > 0 {
		agg = fmt.Sprintf(" agg=%d/x%.2f", r.AggChecked, r.AggDegrade)
	}
	if r.CalcChecked > 0 {
		agg += fmt.Sprintf(" calc=%d/%.2f", r.CalcChecked, r.CalcTight)
	}
	fmt.Fprintf(&b, "seed %d: %s%s  %s links=%d sessions=%d proc=%d dur=%.3gs pkts=%d disciplines=%d%s\n",
		r.Seed, status, mode, r.Topology, r.Links, r.Sessions, r.Proc, r.Duration, pkts, len(r.Disciplines), agg)
	for _, v := range r.Violations {
		loc := v.Discipline
		if v.Port != "" {
			loc += "@" + v.Port
		}
		if v.Session != 0 {
			loc += fmt.Sprintf(" s%d", v.Session)
		}
		fmt.Fprintf(&b, "  %-20s %-28s %s\n", v.Check, loc, v.Detail)
	}
	return b.String()
}
