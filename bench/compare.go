package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// spec is BENCHMARK.json: the names, directions and bounds the driver
// holds the benchmark to. Comparing reads them from there, so there is
// one copy of each bound.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 on per-layer metrics: not gated
}

func readSpec() (*spec, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// values lists, in run order, what the runs of one workload reported
// for one metric.
func values(runs []result, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles are Python's statistics.quantiles(v, n=4), which is what
// the driver computes its spreads from.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's runs of one metric on one workload.
type side struct {
	v          []float64
	q1, q2, q3 float64
}

func newSide(v []float64) side {
	s := side{v: v}
	s.q1, s.q2, s.q3 = quartiles(v)
	return s
}

// spread is the distance between the quartiles as a share of the
// median.
func (s side) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.q2)
}

func (s side) String() string { return fmt.Sprintf("%.5g [%.5g %.5g]", s.q2, s.q1, s.q3) }

// verdict applies the choosing-metrics guide's section 8 to one gated
// metric: a is the parent, b the change.
func verdict(m specMetric, a, b side) string {
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worse := (b.q2 - a.q2) / math.Abs(a.q2)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	allBetter := true
	for _, x := range b.v {
		for _, y := range a.v {
			allBetter = allBetter && better(x, y)
		}
	}
	if math.Max(a.spread(), b.spread()) > m.Bound && !allBetter {
		return "unresolved"
	}
	if won, pairs := pairsWon(m, a, b); pairs > 0 && float64(won) >= 0.9*float64(pairs) &&
		better(b.q2, a.q2) && math.Abs(b.q2-a.q2) > a.q3-a.q1 {
		return "improved"
	}
	return "unchanged"
}

// pairsWon counts the pairs (a's i-th run, b's i-th run) that b wins;
// a tie counts for neither.
func pairsWon(m specMetric, a, b side) (won, pairs int) {
	pairs = min(len(a.v), len(b.v))
	for i := 0; i < pairs; i++ {
		if (m.Better == "higher" && b.v[i] > a.v[i]) || (m.Better != "higher" && b.v[i] < a.v[i]) {
			won++
		}
	}
	return won, pairs
}

// compareRuns prints, per workload and metric, each side's median and
// quartiles, the share of pairs b won, the bound and the verdict. With
// same set — both files are runs of one binary — it returns how many
// pairings break the benchmark's own promise: a set-to-set difference
// beyond the bound, or a spread beyond a tenth (setup_s's spread is
// reported but, as by the driver, not held to that).
func compareRuns(s *spec, a, b []result, same bool) int {
	broken := 0
	for _, w := range s.Workloads {
		for _, m := range slices.Concat(s.EndToEnd, s.PerLayer) {
			sa, sb := newSide(values(a, w.Name, m.Name)), newSide(values(b, w.Name, m.Name))
			if len(sa.v) == 0 || len(sb.v) == 0 {
				continue
			}
			won, pairs := pairsWon(m, sa, sb)
			line := fmt.Sprintf("%-16s %-32s A %-32s B %-32s won %d/%d", w.Name, m.Name, sa, sb, won, pairs)
			if m.Bound > 0 {
				line += fmt.Sprintf("  bound %.3g  %s", m.Bound, verdict(m, sa, sb))
			}
			if same && m.Bound > 0 {
				diff := math.Abs(sb.q2-sa.q2) / math.Abs(sa.q2)
				line += fmt.Sprintf("  spread %.4f %.4f  diff %.4f", sa.spread(), sb.spread(), diff)
				wide := m.Name != "setup_s" && math.Max(sa.spread(), sb.spread()) > 0.1
				if diff > m.Bound || wide {
					line += "  FAIL"
					broken++
				}
			}
			fmt.Println(line)
		}
	}
	return broken
}

func compareFiles(pathA, pathB string) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	compareRuns(s, a, b, false)
	return nil
}

// selfCheck runs two sets of n untraced runs of this binary, a pair at
// a time on a seed of its own with the order alternating, and holds
// the two sets to the benchmark's bounds.
func selfCheck(n int, seed uint64, seconds float64) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	paths := [2]string{}
	for i, name := range []string{"selfcheck-A.jsonl", "selfcheck-B.jsonl"} {
		if paths[i], err = outPath(name); err != nil {
			return err
		}
		if err := os.RemoveAll(paths[i]); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads() {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2
				if err := runChild(w, seed+uint64(i), seconds, false, paths[set], true); err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "selfcheck: pair %d of %d done\n", i+1, n)
	}
	var sets [2][]result
	for i := range sets {
		if sets[i], err = readRuns(paths[i]); err != nil {
			return err
		}
	}
	if broken := compareRuns(s, sets[0], sets[1], true); broken > 0 {
		return fmt.Errorf("selfcheck: %d pairings of workload and metric do not repeat within their bound", broken)
	}
	return nil
}

// historyEntry is one line of bench/history.jsonl.
type historyEntry struct {
	Commit     string                        `json:"commit"`
	Go         string                        `json:"go"`
	NProc      int                           `json:"nproc"`
	GOMAXPROCS int                           `json:"GOMAXPROCS"`
	Seed       []uint64                      `json:"seed"`
	Runs       int                           `json:"runs"`
	Medians    map[string]map[string]float64 `json:"medians"` // workload -> metric
}

// recordHistory appends the medians of the runs in the given -json
// files to bench/history.jsonl. The runs must be of one commit.
func recordHistory(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("usage: bench -record runs.jsonl ...")
	}
	var runs []result
	for _, p := range paths {
		r, err := readRuns(p)
		if err != nil {
			return err
		}
		runs = append(runs, r...)
	}
	if len(runs) == 0 {
		return fmt.Errorf("no runs in %v", paths)
	}
	e := historyEntry{Commit: runs[0].Commit, Go: runs[0].Go, NProc: runs[0].NProc,
		GOMAXPROCS: runs[0].GOMAXPROCS, Runs: len(runs), Medians: map[string]map[string]float64{}}
	seen := map[uint64]bool{}
	for _, r := range runs {
		if r.Commit != e.Commit {
			return fmt.Errorf("runs of two commits, %s and %s", e.Commit, r.Commit)
		}
		if !seen[r.Seed] {
			seen[r.Seed] = true
			e.Seed = append(e.Seed, r.Seed)
		}
		if e.Medians[r.Workload] == nil {
			e.Medians[r.Workload] = map[string]float64{}
		}
		for name := range r.Metrics {
			e.Medians[r.Workload][name] = median(values(runs, r.Workload, name))
		}
	}
	return appendJSON(filepath.Join(benchDir(), "history.jsonl"), e)
}
