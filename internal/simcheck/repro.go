package simcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"leaveintime/internal/config"
)

// WriteRepro serializes the case as an indented, replayable JSON repro:
// the scenario document with the check object beside it. A clean repro
// runs under litrun and litserve as well; a churn repro whose plan sets
// a session up again replays only under litcheck -replay, because the
// declarative runner releases but cannot re-SETUP (Scenario.Runnable;
// ROADMAP item 13). The bound scale is part of the check
// object, so a repro produced under an injected tightening reproduces
// the same injected failure.
func WriteRepro(path string, sc Case) error {
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false) // server names read n0->n1
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		return fmt.Errorf("simcheck: marshal repro: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data.Bytes(), 0o644)
}

// LoadCase reads a repro written by WriteRepro, or any scenario
// document (its check object is then empty).
func LoadCase(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	sc := Case{Scenario: &config.Scenario{}}
	if err := json.Unmarshal(data, &sc); err != nil {
		return Case{}, fmt.Errorf("simcheck: parse repro %s: %w", path, err)
	}
	return sc, nil
}

// Replay loads a repro and re-checks it, returning the report. A repro
// whose bound_scale lies outside [0, 1] is refused: a scale can only
// tighten the checked bounds.
func Replay(path string, opt Options) (*SeedReport, error) {
	sc, err := LoadCase(path)
	if err != nil {
		return nil, err
	}
	if bs := sc.Check.BoundScale; !(bs >= 0 && bs <= 1) {
		return nil, fmt.Errorf("simcheck: %s: bound_scale %g is outside [0, 1]", path, bs)
	}
	return CheckScenario(sc, opt), nil
}
