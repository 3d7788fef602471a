package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
	"repro/internal/stats"
)

// E14ScalingCurves is the ablation series for the convergence theorems:
// rounds-to-silence as a function of network size, per protocol, on
// random connected graphs of constant expected degree. The measured
// series must stay within the proved bounds (Δ × #C for MIS, (Δ+1)n+2
// for MATCHING) at every size, and exposes the actual growth — far below
// the worst case — that a practitioner would see.
func E14ScalingCurves(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sizes := []int{8, 16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching}
	sizeGraphs := make([]*graph.Graph, len(sizes))
	for i, n := range sizes {
		r := rng.New(rng.Derive(cfg.Seed, uint64(n)))
		sizeGraphs[i] = graph.RandomConnectedGNP(n, 4.0/float64(n), r)
	}
	var specs []engine.ProtoCell
	for _, family := range families {
		for _, g := range sizeGraphs {
			specs = append(specs, engine.ProtoCell{Graph: g, Family: family})
		}
	}
	// Streaming aggregation: per-cell summaries, no retained run results.
	type acc struct {
		agg    core.Convergence
		rounds []float64
	}
	accs := make([]acc, len(specs))
	for i := range accs {
		accs[i].agg = core.NewConvergence()
	}
	err := runProtoCells(cfg, specs, func(cell, _ int, res *core.FaultResult) error {
		a := &accs[cell]
		a.agg.Add(&res.RunResult)
		if res.Silent {
			a.rounds = append(a.rounds, float64(res.RoundsToSilence))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E14: convergence scaling (rounds vs n)",
		"protocol", "n", "Δ", "mean rounds", "max rounds", "bound", "within")
	pass := true
	for fi, family := range families {
		for si, n := range sizes {
			g := sizeGraphs[si]
			sys, err := engine.Build(g, family, nil)
			if err != nil {
				return nil, err
			}
			bound, haveBound := 0, true
			switch family {
			case engine.FamMIS:
				bound = mis.RoundBound(sys)
			case engine.FamMatching:
				bound = matching.RoundBound(sys)
			default:
				haveBound = false // COLORING's convergence is probabilistic
			}
			agg := accs[fi*len(sizes)+si].agg
			rounds := accs[fi*len(sizes)+si].rounds
			within := agg.Converged == agg.Runs
			boundCell := "—"
			if haveBound {
				within = within && agg.MaxRounds <= bound
				boundCell = fmt.Sprintf("%d", bound)
			}
			pass = pass && within
			table.AddRow(family, n, g.MaxDegree(),
				stats.Summarize(rounds).Mean, agg.MaxRounds, boundCell, within)
		}
	}
	return &Result{
		ID:       "E14",
		Title:    "rounds-to-silence vs network size",
		PaperRef: "Lemmas 4 and 9 (ablation series)",
		Claim:    "measured convergence stays within the proved bounds at every size and grows far slower than the worst case",
		Table:    table,
		Pass:     pass,
		Notes:    "random connected graphs of constant expected degree (G(n, 4/n) plus spanning tree)",
	}, nil
}

// E15FaultContainment quantifies the Section 1 motivation from the fault
// side: starting from a legitimate silent configuration, corrupt k
// processes uniformly and measure the rounds needed to re-stabilize.
// Self-stabilization guarantees recovery from any k; the experiment
// verifies recovery always succeeds and reports how the cost grows with
// the fault size.
//
// E15 is the thin special case of the adversary subsystem: the uniform
// adversary injected once at start (fault.AtStart), whose draw stream is
// byte-identical to the legacy clone-then-corrupt path. E16 widens the
// grid to every adversary shape, E17 to repeated injections, E18 to
// clustered faults.
func E15FaultContainment(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	g := graphs[len(graphs)/3]
	faultFractions := []float64{0.1, 0.25, 0.5, 1.0}
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching}

	type faultCell struct {
		family string
		k      int
	}
	snapshots, err := silentSnapshots(cfg, g, families)
	if err != nil {
		return nil, err
	}
	ecfg := cfg.engineConfig()
	var grid []faultCell
	var cells []engine.Cell
	for fi, family := range families {
		sys, err := engine.Build(g, family, nil)
		if err != nil {
			return nil, err
		}
		for _, frac := range faultFractions {
			k := int(frac * float64(g.N()))
			if k < 1 {
				k = 1
			}
			cell, err := engine.NewCell(&ecfg, engine.Scenario{
				Key:   fmt.Sprintf("%s|%s|faults=%d", g.Name(), family, k),
				Index: len(cells), System: sys, Snapshot: snapshots[fi],
				Adversary: "uniform", K: k, Schedule: fault.AtStart(),
			})
			if err != nil {
				return nil, err
			}
			grid = append(grid, faultCell{family: family, k: k})
			cells = append(cells, cell)
		}
	}
	accs, err := foldRecovery(ecfg, cells)
	if err != nil {
		return nil, err
	}

	table := stats.NewTable("E15: recovery rounds after k-process corruption",
		"protocol", "graph", "faults", "recovered", "mean rounds", "max rounds")
	pass := true
	for i, fc := range grid {
		a := &accs[i]
		ok := a.legit == cfg.Trials
		pass = pass && ok
		table.AddRow(fc.family, g.Name(), fc.k, outOf(a.legit, cfg.Trials),
			stats.Summarize(a.finalRounds).Mean, a.maxFinalRounds)
	}
	return &Result{
		ID:       "E15",
		Title:    "fault containment: recovery cost vs corruption size",
		PaperRef: "Section 1 (forward recovery from transient failures)",
		Claim:    "every corruption of any size is recovered; recovery cost grows with the fault size",
		Table:    table,
		Pass:     pass,
	}, nil
}
