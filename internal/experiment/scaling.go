package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
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
	// Each size draws its G(n, 4/n) graph from a stream of its own.
	var lines strings.Builder
	for _, n := range sizes {
		fmt.Fprintf(&lines, "graph gnp %d seed=%d\n", n, rng.Derive(cfg.Seed, uint64(n)))
	}
	plan, in, err := compileSpec(cfg, "e14-scaling-curves", fmt.Sprintf(`%sprotocol %s
`, lines.String(), strings.Join(families, " ")))
	if err != nil {
		return nil, err
	}
	// Streaming aggregation: per-cell summaries, no retained run results.
	type acc struct {
		agg    core.Convergence
		rounds []float64
	}
	accs := make([]acc, len(plan.Cells))
	for i := range accs {
		accs[i].agg = core.NewConvergence()
	}
	err = in.RunCells(func(cell, _ int, res *core.FaultResult) error {
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
			// Cells run size-major, protocol-minor.
			cell := si*len(families) + fi
			sys := in.System(cell)
			bound, haveBound := 0, true
			switch family {
			case engine.FamMIS:
				bound = mis.RoundBound(sys)
			case engine.FamMatching:
				bound = matching.RoundBound(sys)
			default:
				haveBound = false // COLORING's convergence is probabilistic
			}
			agg, rounds := accs[cell].agg, accs[cell].rounds
			within := agg.Converged == agg.Runs
			boundCell := "—"
			if haveBound {
				within = within && agg.MaxRounds <= bound
				boundCell = fmt.Sprintf("%d", bound)
			}
			pass = pass && within
			table.AddRow(family, n, sys.Graph().MaxDegree(),
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
	line, desc, err := midSuite(cfg, 3)
	if err != nil {
		return nil, err
	}
	var ks []int
	for _, frac := range []float64{0.1, 0.25, 0.5, 1.0} {
		ks = append(ks, max(1, int(frac*float64(desc.N))))
	}
	plan, _, accs, err := runCampaign(cfg, "e15-fault-containment", fmt.Sprintf(`key {graph}|{protocol}|faults={k}
%s
protocol coloring mis matching
adversary uniform k=%s inject=at-start
`, line, ksCSV(ks)))
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E15: recovery rounds after k-process corruption",
		"protocol", "graph", "faults", "recovered", "mean rounds", "max rounds")
	pass := true
	for i := range plan.Cells {
		cs, a := &plan.Cells[i], &accs[i]
		ok := a.legit == cfg.Trials
		pass = pass && ok
		table.AddRow(cs.Protocol, desc.Name, cs.K, outOf(a.legit, cfg.Trials),
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
