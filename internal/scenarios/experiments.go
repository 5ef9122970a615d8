package scenarios

import (
	"fmt"
	"slices"

	"leaveintime/internal/metrics"
)

// Experiment is one row of Experiments: a run of the paper's evaluation
// and what cmd/litsim prints of it.
type Experiment struct {
	Name string
	// Aliases select the row's alias view, Output.AliasText. An alias
	// offers what its row offers, -plot aside.
	Aliases []string
	// Doc says what the row prints, for litsim's doc comment.
	Doc string
	// Paper is the paper's run length in seconds, the default duration;
	// zero where the run takes none.
	Paper float64
	// Offers names the flags beyond text the row fills Output for:
	// "json", "plot", "telemetry".
	Offers []string
	// Run runs the experiment; with telemetry it counts the run into
	// Output.Telemetry too. Telemetry never changes the results.
	Run func(duration float64, seed uint64, telemetry bool) (Output, error)
}

// Output is one run, in each view its row offers.
type Output struct {
	Text, AliasText, Plot string
	// JSON is the result JSON renders; Telemetry is the document
	// -telemetry writes.
	JSON, Telemetry any
}

// Experiments is the paper's evaluation, in the order "all" runs it.
var Experiments = []Experiment{
	{Name: "fig7", Paper: 300, Offers: []string{"telemetry"}, Run: fig7,
		Doc: "Figure 7: maximum delay and jitter of a MIX ON-OFF session versus a_OFF (telemetry: one snapshot per point)"},
	{Name: "fig8", Aliases: []string{"fig12", "fig13"}, Paper: 600, Offers: []string{"json", "plot", "telemetry"}, Run: fig8,
		Doc: "Figures 8, 12 and 13: CROSS delay with and without jitter control, then the buffer distributions, which fig12 and fig13 print alone"},
	{Name: "fig9", Paper: 600, Offers: []string{"json", "plot"}, Run: dist("Figure 9", RunFig9),
		Doc: "Figure 9: a Poisson session's delay tail (utilization 0.7) against the ineq. 16 bounds"},
	{Name: "fig10", Paper: 600, Offers: []string{"json", "plot"}, Run: dist("Figure 10", RunFig10),
		Doc: "Figure 10: the same for a 32 kbit/s session (utilization 0.33)"},
	{Name: "fig11", Paper: 600, Offers: []string{"json", "plot"}, Run: dist("Figure 11", RunFig11),
		Doc: "Figure 11: Figure 10 with deterministic cross traffic"},
	{Name: "fig14", Paper: 300, Run: text(func(d float64, seed uint64) string { return RunFig14to17(d, seed, 2).Format() }),
		Doc: "Figures 14-17: two delay classes under admission control procedure 2"},
	{Name: "fig14ac1", Paper: 300, Run: text(func(d float64, seed uint64) string { return RunFig14to17(d, seed, 1).Format() }),
		Doc: "the same under procedure 1"},
	{Name: "perhop", Paper: 60, Run: text(func(d float64, seed uint64) string { return RunPerHop(d, seed).Format() }),
		Doc: "Figure 8's run traced: delay hop by hop"},
	{Name: "establish", Run: text(func(_ float64, seed uint64) string { return RunEstablishment(seed, 0.5e-3).Format() }),
		Doc: "the 116 MIX sessions signalled hop by hop, 0.5 ms processing a node"},
	{Name: "blocking", Paper: 600, Run: text(func(d float64, seed uint64) string { return RunCallBlocking(d, seed, 40, 2).Format() }),
		Doc: "call blocking under procedure 1 against Erlang B: 40 Erl offered, 2 s holding"},
	{Name: "saturation", Paper: 30, Run: text(func(d float64, seed uint64) string { return RunSaturation(d, seed, 8, 5).Format() }),
		Doc: "scheduler saturation: 8 sessions on one T1, d admissible and then 5 times too small"},
	{Name: "metro", Paper: 10, Run: metro,
		Doc: "the ring-of-rings metro (208 switches), one serial simulation"},
	{Name: "ups", Paper: 30, Run: text(func(d float64, seed uint64) string { return RunUPS(d, seed).Format() }),
		Doc: "the NSDI '16 universal packet scheduling replay: baseline schedules replayed by LSTF and by LiT from slack in the header"},
	{Name: "section4", Run: section4,
		Doc: "Section 4: the Stop-and-Go and PGPS bound comparisons"},
	{Name: "comparison", Paper: 60, Run: text(func(d float64, seed uint64) string { return RunComparison(d, seed, Fig8OnOffAOff).Format() }),
		Doc: "Section 4 run live: the CROSS tagged session under every discipline, each beside its own bound"},
}

// Names lists every name Select accepts: the rows' names in table
// order, their aliases, then "all".
func Names() []string {
	var names, aliases []string
	for _, e := range Experiments {
		names = append(names, e.Name)
		aliases = append(aliases, e.Aliases...)
	}
	return append(append(names, aliases...), "all")
}

// Select returns the rows name runs: every row for "all", none for a
// name no row has. alias reports a name taken from a row's Aliases.
func Select(name string) (rows []Experiment, alias bool) {
	if name == "all" {
		return Experiments, false
	}
	for _, e := range Experiments {
		if e.Name == name || slices.Contains(e.Aliases, name) {
			return []Experiment{e}, e.Name != name
		}
	}
	return nil, false
}

// Offers says whether name selects rows that all offer flag.
func Offers(name, flag string) bool {
	rows, alias := Select(name)
	for _, e := range rows {
		if !slices.Contains(e.Offers, flag) || alias && flag == "plot" {
			return false
		}
	}
	return len(rows) > 0
}

// text is the runner of a row whose only view is its text.
func text(run func(duration float64, seed uint64) string) func(float64, uint64, bool) (Output, error) {
	return func(duration float64, seed uint64, _ bool) (Output, error) {
		return Output{Text: run(duration, seed)}, nil
	}
}

// fig7Point is one sweep point of fig7's telemetry document.
type fig7Point struct {
	AOff     float64           `json:"a_off_s"`
	Snapshot *metrics.Snapshot `json:"snapshot"`
}

func fig7(duration float64, seed uint64, telemetry bool) (Output, error) {
	var regs []*metrics.Registry
	if telemetry {
		regs = make([]*metrics.Registry, len(AOffValues))
		for i := range regs {
			regs[i] = metrics.NewRegistry()
		}
	}
	out := Output{Text: RunFig7Observed(duration, seed, regs).Format()}
	if telemetry {
		points := make([]fig7Point, len(regs))
		for i, reg := range regs {
			points[i] = fig7Point{AOff: AOffValues[i], Snapshot: reg.Snapshot(duration)}
		}
		out.Telemetry = points
	}
	return out, nil
}

func fig8(duration float64, seed uint64, telemetry bool) (Output, error) {
	var reg *metrics.Registry
	if telemetry {
		reg = metrics.NewRegistry()
	}
	res := RunFig8Observed(duration, seed, reg)
	out := Output{Text: res.Format() + res.FormatBuffers(), AliasText: res.FormatBuffers(), Plot: res.Plot(), JSON: res}
	if telemetry {
		out.Telemetry = reg.Snapshot(duration)
	}
	return out, nil
}

// dist is the runner of one of Figures 9-11, whose views carry the
// figure's name.
func dist(figure string, run func(duration float64, seed uint64) *DistResult) func(float64, uint64, bool) (Output, error) {
	return func(duration float64, seed uint64, _ bool) (Output, error) {
		res := run(duration, seed)
		return Output{Text: figure + ": " + res.Format(), Plot: figure + ":\n" + res.Plot(), JSON: res}, nil
	}
}

func metro(duration float64, seed uint64, _ bool) (Output, error) {
	res, err := RunMetro(MetroOptions{Duration: duration, Seed: seed, Metrics: true})
	if err != nil {
		return Output{}, err
	}
	return Output{Text: res.Format()}, nil
}

// section4 prints the Stop-and-Go example (T = 10 ms on the Figure 6
// route) and eq. 15 against the PGPS bound for a one-cell voice session.
func section4(float64, uint64, bool) (Output, error) {
	pg := RunSection4PGPS(VoiceRate, CellBits, CellBits, T1Rate, PropDelay, NumNodes)
	return Output{Text: RunSection4StopAndGo(0.01, T1Rate, NumNodes).Format() +
		fmt.Sprintf("Section 4: eq. (15) vs PGPS bound on the Figure 6 route: LiT %.6g s, PGPS %.6g s\n", pg.LiT, pg.PGPS)}, nil
}
