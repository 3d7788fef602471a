package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stats"
)

// E13Transformer explores the open question of the paper's concluding
// remarks: a general transformer for local-checking protocols. Each
// full-read protocol (the three baselines plus the classical BFS
// spanning tree) is mechanically transformed into its cached-view
// 1-efficient version; the experiment measures whether the transformed
// protocol still self-stabilizes and at what convergence cost.
func E13Transformer(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := graph.Suite(cfg.Seed, cfg.Quick)
	if err != nil {
		return nil, err
	}
	// Each target names a full-read family and its transformed twin; the
	// label keys the cells.
	targets := []struct{ name, orig, xform string }{
		{"coloring-fullread", engine.FamColoringBaseline, engine.FamColoringXform},
		{"mis-fullread", engine.FamMISBaseline, engine.FamMISXform},
		{"matching-fullread", engine.FamMatchingBaseline, engine.FamMatchingXform},
		{"bfstree-fullread", engine.FamBFSTree, engine.FamBFSTreeXform},
	}

	// Every (target, graph) pair expands into two pool cells: the original
	// full-read spec and its transformed 1-efficient version.
	type pairIdx struct {
		name  string
		graph *graph.Graph
	}
	ecfg := cfg.engineConfig()
	var pairs []pairIdx
	var cells []engine.Cell
	for _, tg := range targets {
		for _, g := range graphs {
			if cfg.Quick && g.N() > 12 {
				continue
			}
			for _, v := range []struct{ label, family string }{{"orig", tg.orig}, {"xform", tg.xform}} {
				sys, err := engine.Build(g, v.family, nil)
				if err != nil {
					return nil, err
				}
				cell, err := engine.NewCell(ecfg, engine.Scenario{
					Key:   fmt.Sprintf("%s|%s|%s", tg.name, g.Name(), v.label),
					Index: len(cells), System: sys,
				})
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
			pairs = append(pairs, pairIdx{name: tg.name, graph: g})
		}
	}
	aggs := make([]core.Convergence, len(cells))
	for i := range aggs {
		aggs[i] = core.NewConvergence()
	}
	err = engine.RunCells(ecfg, cells, func(cell, _ int, res *core.FaultResult) error {
		aggs[cell].Add(&res.RunResult)
		return nil
	})
	if err != nil {
		return nil, err
	}

	table := stats.NewTable("E13: local-checking transformer (Section 6 open question)",
		"protocol", "graph", "converged", "legit", "k-eff", "orig rounds", "xform rounds", "slowdown")
	pass := true
	for i, pr := range pairs {
		origAgg := aggs[2*i]
		xAgg := aggs[2*i+1]
		origRounds, xRounds := origAgg.MaxRounds, xAgg.MaxRounds
		ok := xAgg.Converged == xAgg.Runs && xAgg.LegitimateAll && xAgg.MaxKEfficiency <= 1
		pass = pass && ok
		slowdown := "n/a"
		if origRounds > 0 {
			slowdown = fmt.Sprintf("%.1fx", float64(xRounds)/float64(origRounds))
		}
		table.AddRow(pr.name, pr.graph.Name(),
			fmt.Sprintf("%d/%d", xAgg.Converged, xAgg.Runs),
			xAgg.LegitimateAll, xAgg.MaxKEfficiency, origRounds, xRounds, slowdown)
	}
	return &Result{
		ID:       "E13",
		Title:    "cached-view transformer: full-read protocols made 1-efficient",
		PaperRef: "Section 6 (concluding remarks, open question)",
		Claim:    "mechanically transformed local-checking protocols remain self-stabilizing on the suite and read at most one neighbor per step",
		Table:    table,
		Pass:     pass,
		Notes:    "empirical answer: the transformer preserves stabilization for these four protocols; the paper leaves the general guarantee open",
	}, nil
}
