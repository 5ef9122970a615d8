package simcheck

import (
	"fmt"
	"slices"
	"strings"
)

// Violation is one failed invariant check.
type Violation struct {
	// Check names the invariant: delay-bound, jitter-bound,
	// buffer-bound, loss-free, deadline-inversion, work-conservation,
	// eligible-idle, pool-balance, conservation, emit-divergence,
	// vc-equivalence, approx-divergence, telemetry-agreement,
	// engine-sanity, admission-replay, capacity-leak, gps-lag, gps-tag,
	// fastpath-divergence, replay-delay; for a run or a battery that did
	// not finish, watchdog and panic; for a case that could not be run,
	// build and invalid-scenario.
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

	// AggChecked counts sessions checked against the class aggregate's
	// promise (clean cases only), and AggDegrade is the worst
	// degradation factor over them: degraded aggregate delay bound over
	// the paper's per-session eq.-12 bound.
	AggChecked int     `json:"agg_checked,omitempty"`
	AggDegrade float64 `json:"agg_degrade,omitempty"`

	// bounds holds one tally per discipline of a clean case, the
	// baselines first, then LiT and its class aggregate: its sessions
	// held to their row's promise (checkRowBound).
	bounds []boundTally
}

// boundTally is one discipline's share of the bound checks: the
// sessions held to its row's delay bound and the worst observed maximum
// delay over that bound, the sessions it owes none, by reason, and the
// sessions of those checked that it also owes a jitter bound, with the
// worst observed jitter over it.
type boundTally struct {
	discipline    string
	checked       int
	worst         float64
	excluded      map[string]int
	jitterChecked int
	jitterWorst   float64
}

// BoundLedger sums the tallies of many reports, a discipline at a time
// in the order they first appear.
type BoundLedger []boundTally

// Add sums the report's tallies into the ledger.
func (l *BoundLedger) Add(r *SeedReport) {
	for _, t := range r.bounds {
		i := slices.IndexFunc(*l, func(s boundTally) bool { return s.discipline == t.discipline })
		if i < 0 {
			*l = append(*l, boundTally{discipline: t.discipline, excluded: map[string]int{}})
			i = len(*l) - 1
		}
		s := &(*l)[i]
		s.checked += t.checked
		s.worst = max(s.worst, t.worst)
		s.jitterChecked += t.jitterChecked
		s.jitterWorst = max(s.jitterWorst, t.jitterWorst)
		for why, n := range t.excluded {
			s.excluded[why] += n
		}
	}
}

// Format renders the ledger: one line per discipline for the delay
// bounds, its exclusions in reason order, then one line per discipline
// that promised a jitter bound. A session owed no jitter bound is owed
// no delay bound either, or its row states none, so the jitter lines
// list no exclusions.
func (l BoundLedger) Format() string {
	var b strings.Builder
	b.WriteString("baseline bounds (clean runs: sessions checked, worst max delay/bound, sessions excluded by reason):\n")
	for _, t := range l {
		worst := "-"
		if t.checked > 0 {
			worst = fmt.Sprintf("%.3f", t.worst)
		}
		fmt.Fprintf(&b, "  %-12s checked %5d  worst %5s", t.discipline, t.checked, worst)
		reasons := make([]string, 0, len(t.excluded))
		for why := range t.excluded {
			reasons = append(reasons, why)
		}
		slices.Sort(reasons)
		for _, why := range reasons {
			fmt.Fprintf(&b, "  %s %d", why, t.excluded[why])
		}
		b.WriteString("\n")
	}
	b.WriteString("jitter bounds (clean runs: sessions checked, worst jitter/bound):\n")
	for _, t := range l {
		if t.jitterChecked > 0 {
			fmt.Fprintf(&b, "  %-12s checked %5d  worst %5.3f\n", t.discipline, t.jitterChecked, t.jitterWorst)
		}
	}
	return b.String()
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
