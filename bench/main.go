// Command bench is the repository's benchmark: five long workloads, six
// end-to-end metrics each, and a traced run that attributes cost to
// layers. README.md has the tables; BENCHMARK.json is the contract with
// the driver.
//
//	go run ./bench                         every workload, untraced
//	go run ./bench -trace                  every workload, per-layer rows
//	go run ./bench -workload NAME -seed 3  one workload; last line is JSON
//	go run ./bench -json runs.jsonl        also append each run to a file
//	go run ./bench -compare A.jsonl B.jsonl
//	go run ./bench -selfcheck 5
//	go run ./bench -record runs.jsonl ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// boolArgs gives -trace the two spellings it is called with: bare, as
// go's flag package wants a boolean, and followed by 0 or 1, as the
// driver passes it.
func boolArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload only and end with its result as one JSON line")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", runSeconds, "run length the op counts are sized for")
	trace := fs.Bool("trace", false, "the traced run: per-layer rows in place of the end-to-end metrics")
	jsonPath := fs.String("json", "", "append each run's result to this file, one JSON object a line")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare A B")
	selfcheck := fs.Int("selfcheck", 0, "run two interleaved sets of N runs of this binary and compare them")
	record := fs.Bool("record", false, "append the medians of the given -json files to bench/history.jsonl")
	if err := fs.Parse(boolArgs(args)); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1))
	case *record:
		err = recordHistory(fs.Args())
	case *selfcheck > 0:
		err = selfCheck(*selfcheck, *seed, *seconds)
	case *name == "":
		err = runAll(*seed, *seconds, *trace, *jsonPath)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			return 2
		}
		err = runOne(w, *seed, *seconds, *trace, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process, prints its rows and ends
// standard output with the result the driver reads.
func runOne(w *workload, seed uint64, seconds float64, trace bool, jsonPath string) error {
	var r *result
	defs := endToEnd
	if trace {
		r, defs = traced(w, seed, seconds), perLayer
	} else {
		r = measure(w, seed, seconds)
	}
	r.print(defs)
	if jsonPath != "" {
		// Only now: git's child processes would leave their mark on the
		// live heap the run measures.
		r.Commit = commit()
		if err := appendJSON(jsonPath, r); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", w.name, r.Failed, r.Attempted)
	}
	return nil
}

func appendJSON(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChild re-executes this binary for one workload, so each workload
// starts from a fresh heap. The child's rows pass through; its closing
// JSON line is for the driver and is dropped here.
func runChild(w *workload, seed uint64, seconds float64, trace bool, jsonPath string, quiet bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if trace {
		args = append(args, "-trace")
	}
	if jsonPath != "" {
		args = append(args, "-json", jsonPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if !quiet {
		os.Stdout.Write(dropLastLine(out)) //nolint:errcheck — rows are for reading; the result is in the exit code
	}
	return err
}

func dropLastLine(out []byte) []byte {
	for i := len(out) - 2; i >= 0; i-- {
		if out[i] == '\n' {
			return out[:i+1]
		}
	}
	return nil
}

func runAll(seed uint64, seconds float64, trace bool, jsonPath string) error {
	var failed error
	for _, w := range workloads() {
		if err := runChild(w, seed, seconds, trace, jsonPath, false); err != nil {
			failed = fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return failed
}

// benchDir is bench/ as seen from the working directory: the benchmark
// runs from the root of the repository, its tests from bench/ itself.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "bench"
	}
	return "."
}

// outPath names a file under bench/out, which .gitignore covers.
func outPath(name string) (string, error) {
	dir := filepath.Join(benchDir(), "out")
	return filepath.Join(dir, name), os.MkdirAll(dir, 0o755)
}
