package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/sched"
	"repro/internal/stats"
)

// E1ColoringConvergence reproduces Theorem 3 (Protocol COLORING,
// Figure 7): from adversarial initial configurations on every suite
// graph, the protocol reaches a silent, properly colored configuration,
// and never reads more than one neighbor per step.
func E1ColoringConvergence(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	specs := make([]engine.ProtoCell, len(graphs))
	for i, g := range graphs {
		specs[i] = engine.ProtoCell{Graph: g, Family: engine.FamColoring}
	}
	// Streaming aggregation: each trial folds into its graph's
	// accumulator as it finishes (trial order per cell), so the grid of
	// run results is never materialized.
	type acc struct {
		agg   core.Convergence
		steps []float64
	}
	accs := make([]acc, len(graphs))
	for i := range accs {
		accs[i].agg = core.NewConvergence()
	}
	err = runProtoCells(cfg, specs, func(cell, _ int, res *core.FaultResult) error {
		a := &accs[cell]
		a.agg.Add(&res.RunResult)
		if res.Silent {
			a.steps = append(a.steps, float64(res.StepsToSilence))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E1: Protocol COLORING convergence (Theorem 3)",
		"graph", "n", "m", "Δ", "trials", "converged", "legit", "k-eff",
		"mean steps", "max rounds")
	pass := true
	for i, g := range graphs {
		agg := accs[i].agg
		ok := agg.Converged == agg.Runs && agg.LegitimateAll && agg.MaxKEfficiency <= 1
		pass = pass && ok
		table.AddRow(g.Name(), g.N(), g.M(), g.MaxDegree(), agg.Runs, agg.Converged,
			agg.LegitimateAll, agg.MaxKEfficiency,
			stats.Summarize(accs[i].steps).Mean, agg.MaxRounds)
	}
	return &Result{
		ID:       "E1",
		Title:    "COLORING converges w.p. 1 and is 1-efficient",
		PaperRef: "Theorem 3, Figure 7",
		Claim:    "every adversarial run reaches a silent proper coloring; k-efficiency = 1",
		Table:    table,
		Pass:     pass,
		Notes:    "probability-1 convergence is validated statistically: all runs converge within the step budget",
	}, nil
}

// E3MISRounds reproduces Theorem 5 / Lemma 4: Protocol MIS stabilizes,
// and the measured round count never exceeds Δ × #C.
func E3MISRounds(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return roundBoundExperiment(cfg, roundBoundSpec{
		id:        "E3",
		title:     "MIS convergence within Δ × #C rounds",
		paperRef:  "Theorem 5, Lemma 4, Figure 8",
		claim:     "rounds-to-silence ≤ Δ × #C under every scheduler",
		family:    engine.FamMIS,
		bound:     mis.RoundBound,
		boundName: "Δ×#C",
	})
}

// E5MatchingRounds reproduces Theorem 7 / Lemma 9: Protocol MATCHING
// stabilizes within (Δ+1)n + 2 rounds.
func E5MatchingRounds(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return roundBoundExperiment(cfg, roundBoundSpec{
		id:        "E5",
		title:     "MATCHING convergence within (Δ+1)n+2 rounds",
		paperRef:  "Theorem 7, Lemma 9, Figure 10",
		claim:     "rounds-to-silence ≤ (Δ+1)n+2 under every scheduler",
		family:    engine.FamMatching,
		bound:     matching.RoundBound,
		boundName: "(Δ+1)n+2",
	})
}

type roundBoundSpec struct {
	id, title, paperRef, claim string
	family                     string
	bound                      func(*model.System) int
	boundName                  string
}

// boundDaemons are the daemons the round bounds are checked under.
var boundDaemons = []string{"synchronous", "central-rr", "random-subset", "laziest-fair"}

func roundBoundExperiment(cfg Config, spec roundBoundSpec) (*Result, error) {
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	var specs []engine.ProtoCell
	for _, g := range graphs {
		for _, daemon := range boundDaemons {
			specs = append(specs, engine.ProtoCell{Graph: g, Family: spec.family, Daemon: daemon})
		}
	}
	// Streaming aggregation: one accumulator per (graph, scheduler) cell,
	// merged per graph afterwards in scheduler order, so the mean is
	// summed in exactly the materialized path's order.
	type acc struct {
		runs, converged, maxRounds int
		illegitimate               bool
		rounds                     []float64
	}
	accs := make([]acc, len(specs))
	err = runProtoCells(cfg, specs, func(cell, _ int, res *core.FaultResult) error {
		a := &accs[cell]
		a.runs++
		if res.Silent {
			a.converged++
			a.rounds = append(a.rounds, float64(res.RoundsToSilence))
			if res.RoundsToSilence > a.maxRounds {
				a.maxRounds = res.RoundsToSilence
			}
			if !res.LegitimateAtSilence {
				a.illegitimate = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable(
		fmt.Sprintf("%s: %s (%s)", spec.id, spec.title, spec.paperRef),
		"graph", "n", "Δ", "bound "+spec.boundName, "max rounds", "mean rounds",
		"converged", "within bound")
	pass := true
	for gi, g := range graphs {
		sys, err := engine.Build(g, spec.family, nil)
		if err != nil {
			return nil, err
		}
		bound := spec.bound(sys)
		maxRounds, converged, runs := 0, 0, 0
		var rounds []float64
		for si := range boundDaemons {
			a := &accs[gi*len(boundDaemons)+si]
			runs += a.runs
			converged += a.converged
			rounds = append(rounds, a.rounds...)
			if a.maxRounds > maxRounds {
				maxRounds = a.maxRounds
			}
			if a.illegitimate {
				pass = false
			}
		}
		within := converged == runs && maxRounds <= bound
		pass = pass && within
		table.AddRow(g.Name(), g.N(), g.MaxDegree(), bound, maxRounds,
			stats.Summarize(rounds).Mean, fmt.Sprintf("%d/%d", converged, runs), within)
	}
	return &Result{
		ID:       spec.id,
		Title:    spec.title,
		PaperRef: spec.paperRef,
		Claim:    spec.claim,
		Table:    table,
		Pass:     pass,
	}, nil
}

// E11SchedulerRobustness reproduces the model claim of Section 2: all
// three protocols stabilize under every distributed fair scheduler
// variant shipped with the simulator.
func E11SchedulerRobustness(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	// A medium graph keeps the cross product manageable.
	g := graphs[len(graphs)/2]
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching}
	names := sched.Names()
	var specs []engine.ProtoCell
	for _, family := range families {
		for _, name := range names {
			specs = append(specs, engine.ProtoCell{Graph: g, Family: family, Daemon: name})
		}
	}
	aggs := make([]core.Convergence, len(specs))
	for i := range aggs {
		aggs[i] = core.NewConvergence()
	}
	err = runProtoCells(cfg, specs, func(cell, _ int, res *core.FaultResult) error {
		aggs[cell].Add(&res.RunResult)
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E11: convergence under every scheduler (Section 2 model)",
		"protocol", "scheduler", "converged", "legit", "max rounds")
	pass := true
	for fi, family := range families {
		for ni, name := range names {
			agg := aggs[fi*len(names)+ni]
			ok := agg.Converged == agg.Runs && agg.LegitimateAll
			pass = pass && ok
			table.AddRow(family, name, fmt.Sprintf("%d/%d", agg.Converged, agg.Runs),
				agg.LegitimateAll, agg.MaxRounds)
		}
	}
	return &Result{
		ID:       "E11",
		Title:    "scheduler robustness",
		PaperRef: "Section 2 (distributed fair scheduler)",
		Claim:    "all three protocols stabilize under every fair daemon variant",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s", g),
	}, nil
}
