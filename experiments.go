package lit

import "leaveintime/internal/scenarios"

// Fig7Result is the Figure 7 sweep (MIX, ON-OFF, max delay and jitter
// versus mean OFF period); its Format prints the series the figure
// plots.
type Fig7Result = scenarios.Fig7Result

// RunFig7 reproduces Figure 7 (the paper runs 300 s), deterministic in
// (duration, seed). The paper's other experiments run through
// cmd/litsim's table (internal/scenarios.Experiments).
func RunFig7(duration float64, seed uint64) Fig7Result {
	return scenarios.RunFig7(duration, seed)
}
