package experiment

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/stats"
)

// E4MISStability reproduces Theorem 6 and Figure 9: after silence, at
// least ⌊(Lmax+1)/2⌋ processes read only a single fixed neighbor, where
// Lmax is the longest elementary path.
func E4MISStability(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan, in, err := stabilitySpec(cfg, "e4-mis-stability", engine.FamMIS)
	if err != nil {
		return nil, err
	}
	// Streaming aggregation: the exact stability analysis runs inside the
	// fold on the worker's transient result, so no trial result (with its
	// final configuration and read-set slices) is ever retained.
	type acc struct {
		minStable, minExact, dominated int
		nonSilent                      bool
	}
	accs := make([]acc, len(plan.Cells))
	for i := range accs {
		n := in.System(i).Graph().N()
		accs[i] = acc{minStable: n + 1, minExact: n + 1, dominated: -1}
	}
	err = in.RunCells(func(cell, _ int, res *core.FaultResult) error {
		a := &accs[cell]
		if !res.Silent {
			a.nonSilent = true
			return nil
		}
		if stable := res.Report.StableProcesses(1); stable < a.minStable {
			a.minStable = stable
		}
		// Exact analysis: the eventual read set of every process is
		// computed from its orbit in the silent configuration.
		prof, err := model.AnalyzeStability(in.System(cell), res.Final)
		if err != nil {
			return err
		}
		if prof.OneStable < a.minExact {
			a.minExact = prof.OneStable
		}
		a.dominated = res.Report.N - mis.DominatorCount(res.Final)
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E4: MIS ♦-(⌊(Lmax+1)/2⌋,1)-stability (Theorem 6, Figure 9)",
		"graph", "n", "Lmax", "bound", "1-stable exact", "1-stable observed", "dominated", "ok")
	pass := true
	for i := range accs {
		g := in.System(i).Graph()
		lmax, err := g.LongestPathExact(24)
		if err != nil {
			// Too large for the exact solver: use the certified lower
			// bound, which keeps the claim check sound (the theorem's
			// bound grows with Lmax).
			lmax = g.LongestPathLowerBound(200, cfg.Seed)
		}
		bound := mis.StabilityBound(lmax)
		a := &accs[i]
		if a.nonSilent {
			pass = false
		}
		// The observed (finite-suffix) count can only over-approximate
		// the exact limit count; both must clear the paper bound.
		ok := a.minExact >= bound && a.minStable >= a.minExact
		pass = pass && ok
		table.AddRow(g.Name(), g.N(), lmax, bound, a.minExact, a.minStable, a.dominated, ok)
	}
	return &Result{
		ID:       "E4",
		Title:    "MIS eventually-1-stable process count",
		PaperRef: "Theorem 6, Figure 9",
		Claim:    "post-silence, ≥ ⌊(Lmax+1)/2⌋ processes read at most one neighbor",
		Table:    table,
		Pass:     pass,
		Notes:    "1-stability measured over a 6n-round post-silence suffix",
	}, nil
}

// E6MatchingStability reproduces Theorem 8 and Figure 11: after silence,
// at least 2⌈m/(2Δ-1)⌉ processes are matched and hence 1-stable.
func E6MatchingStability(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	plan, in, err := stabilitySpec(cfg, "e6-matching-stability", engine.FamMatching)
	if err != nil {
		return nil, err
	}
	type acc struct {
		minMarried, minStable, minExact int
		nonSilent                       bool
	}
	accs := make([]acc, len(plan.Cells))
	for i := range accs {
		n := in.System(i).Graph().N()
		accs[i] = acc{minMarried: n + 1, minStable: n + 1, minExact: n + 1}
	}
	err = in.RunCells(func(cell, _ int, res *core.FaultResult) error {
		a := &accs[cell]
		if !res.Silent {
			a.nonSilent = true
			return nil
		}
		if married := matching.MarriedCount(in.System(cell), res.Final); married < a.minMarried {
			a.minMarried = married
		}
		if stable := res.Report.StableProcesses(1); stable < a.minStable {
			a.minStable = stable
		}
		prof, err := model.AnalyzeStability(in.System(cell), res.Final)
		if err != nil {
			return err
		}
		if prof.OneStable < a.minExact {
			a.minExact = prof.OneStable
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E6: MATCHING ♦-(2⌈m/(2Δ-1)⌉,1)-stability (Theorem 8, Figure 11)",
		"graph", "n", "m", "Δ", "bound", "married (min)", "1-stable exact", "1-stable observed", "ok")
	pass := true
	for i := range accs {
		g := in.System(i).Graph()
		bound := matching.StabilityBound(g.M(), g.MaxDegree())
		a := &accs[i]
		if a.nonSilent {
			pass = false
		}
		ok := a.minMarried >= bound && a.minExact >= bound && a.minStable >= a.minExact
		pass = pass && ok
		table.AddRow(g.Name(), g.N(), g.M(), g.MaxDegree(), bound, a.minMarried, a.minExact, a.minStable, ok)
	}
	return &Result{
		ID:       "E6",
		Title:    "MATCHING eventually-matched process count",
		PaperRef: "Theorem 8, Figure 11 (Biedl et al. bound)",
		Claim:    "post-silence, ≥ 2⌈m/(2Δ-1)⌉ processes are married and 1-stable",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("Figure 11 network included: bound %d on Δ=4, m=14", matching.StabilityBound(14, 4)),
	}, nil
}

// stabilitySpec compiles the cells of E4 and E6: family on every suite
// graph with a 6n-round post-silence suffix, one cell per graph. The
// instance's systems serve the fold's exact stability analysis.
func stabilitySpec(cfg Config, name, family string) (*campaign.Plan, *campaign.Instance, error) {
	return compileSpec(cfg, name, fmt.Sprintf(`%s
protocol %s
suffix-rounds 6n
`, suiteLine(cfg), family))
}
