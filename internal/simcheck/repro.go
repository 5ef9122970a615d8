package simcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"leaveintime/internal/config"
	"leaveintime/internal/faults"
	"leaveintime/internal/topo"
)

// WriteRepro serializes the case as an indented, replayable JSON repro:
// the scenario document, which litrun and litserve accept as it stands,
// with the check object beside it. The bound scale is part of the check
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
// document (its check object is then empty), or a repro in the dialect
// this harness wrote before it shared the document, which is upgraded
// in memory.
func LoadCase(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	sc := Case{Scenario: &config.Scenario{}}
	var old oldRepro
	if json.Unmarshal(data, &old) == nil && old.Topology != nil {
		sc, err = old.upgrade()
	} else {
		err = json.Unmarshal(data, &sc)
	}
	if err != nil {
		return Case{}, fmt.Errorf("simcheck: parse repro %s: %w", path, err)
	}
	return sc, nil
}

// Replay loads a repro and re-checks it, returning the report.
func Replay(path string, opt Options) (*SeedReport, error) {
	sc, err := LoadCase(path)
	if err != nil {
		return nil, err
	}
	return CheckScenario(sc, opt), nil
}

// oldRepro decodes the retired dialect, recognised by its topology key:
// links between named nodes, sessions by endpoints, sources by the
// harness's model names, the check keys at the top level. Nothing writes
// it any more.
type oldRepro struct {
	Seed     uint64  `json:"seed"`
	LMax     float64 `json:"l_max_bits"`
	Duration float64 `json:"duration_s"`
	Topology *struct {
		Kind  string `json:"kind"`
		Links []struct {
			From     string  `json:"from"`
			To       string  `json:"to"`
			Capacity float64 `json:"capacity_bps"`
			Gamma    float64 `json:"gamma_s"`
		} `json:"links"`
	} `json:"topology"`
	Proc    int `json:"proc"`
	Classes []struct {
		RFrac float64 `json:"r_frac"`
		Sigma float64 `json:"sigma_s"`
	} `json:"classes"`
	Sessions []struct {
		ID           int     `json:"id"`
		From         string  `json:"from"`
		To           string  `json:"to"`
		Rate         float64 `json:"rate_bps"`
		JitterCtrl   bool    `json:"jitter_ctrl"`
		Class        int     `json:"class"`
		D            float64 `json:"d_s"`
		LMin         float64 `json:"l_min_bits"`
		LMax         float64 `json:"l_max_bits"`
		Burst        float64 `json:"burst_bits"`
		LimitBuffers bool    `json:"limit_buffers"`
		Source       struct {
			Kind    string  `json:"kind"`
			Seed    uint64  `json:"seed"`
			MeanOn  float64 `json:"mean_on_s"`
			MeanOff float64 `json:"mean_off_s"`
			MeanGap float64 `json:"mean_gap_s"`
		} `json:"source"`
	} `json:"sessions"`
	Special    bool         `json:"special"`
	BoundScale float64      `json:"bound_scale"`
	Calculus   bool         `json:"calculus"`
	Faults     *faults.Plan `json:"faults"`
}

// upgrade rewrites the old repro as a document: links become servers,
// each session's route is resolved once by the shortest-path search the
// old runner repeated every run, class and source keys are renamed (d
// kept under procedure 3 only, class elsewhere only) and the harness's
// keys move into the check object.
func (old *oldRepro) upgrade() (Case, error) {
	sc := Case{
		Scenario: &config.Scenario{
			LMax: old.LMax, Proc: old.Proc, Duration: old.Duration, Seed: old.Seed, Faults: old.Faults,
		},
		Check: Check{Kind: old.Topology.Kind, Special: old.Special, BoundScale: old.BoundScale, Calculus: old.Calculus},
	}
	g := topo.New()
	for _, l := range old.Topology.Links {
		if _, err := g.AddLink(l.From, l.To, l.Capacity, l.Gamma); err != nil {
			return Case{}, err
		}
		sc.Servers = append(sc.Servers, config.Server{
			Name: linkName(l.From, l.To), From: l.From, To: l.To, Capacity: l.Capacity, Gamma: l.Gamma})
	}
	for _, c := range old.Classes {
		sc.Classes = append(sc.Classes, config.Class{RFrac: c.RFrac, Sigma: c.Sigma})
	}
	for _, s := range old.Sessions {
		links, err := g.RouteLinks(s.From, s.To)
		if err != nil {
			return Case{}, fmt.Errorf("session %d: %w", s.ID, err)
		}
		def := config.Session{
			ID: s.ID, Rate: s.Rate, JitterControl: s.JitterCtrl,
			LMax: s.LMax, LMin: s.LMin, B0: s.Burst, LimitBuffers: s.LimitBuffers,
		}
		for _, l := range links {
			def.Route = append(def.Route, linkName(l.From, l.To))
		}
		if old.Proc == 3 {
			def.D = s.D
		} else {
			def.Class = s.Class
		}
		switch s.Source.Kind {
		case "cbr", "onoff", "poisson", "varlen":
			def.Source = conformingSource(s.Source.Kind, s.Source.Seed, &def, s.Source.MeanOn, s.Source.MeanOff, s.Source.MeanGap)
		default:
			return Case{}, fmt.Errorf("session %d: unknown source kind %q", s.ID, s.Source.Kind)
		}
		sc.Sessions = append(sc.Sessions, def)
	}
	return sc, nil
}
