package experiment

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/verify"
)

// E7TheoremOne makes Theorem 1 executable: on anonymous networks of
// degree Δ, every ♦-k-stable (k < Δ) variant of the protocols admits a
// silent configuration that violates the predicate — built here both by
// the proof's cut-and-stitch procedure and by the deterministic Figure
// 1-2 constructions — while the paper's real 1-efficient protocols are
// not silent on the same configuration and recover from it.
func E7TheoremOne(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("E7: Theorem 1 — no ♦-k-stable neighbor-complete protocol (k < Δ)",
		"construction", "network", "frozen silent", "illegitimate", "impossibility witnessed",
		"real silent", "real recovers")
	pass := true

	var demos []*verify.Demo
	hand := []func() (*verify.Demo, error){
		verify.Theorem1Coloring7Chain,
		verify.Theorem1Coloring5Chain,
		verify.Theorem1MIS5Chain,
		verify.Theorem1Matching6Chain,
	}
	for _, build := range hand {
		d, err := build()
		if err != nil {
			return nil, err
		}
		demos = append(demos, d)
	}
	for delta := 2; delta <= 4; delta++ {
		d, err := verify.TheoremOneSpiderColoring(delta)
		if err != nil {
			return nil, err
		}
		demos = append(demos, d)
	}
	// The proof's own procedure: harvest two silent executions and stitch.
	stitched, _, err := verify.StitchSearchColoring(rng.DeriveString(cfg.Seed, "e7-stitch"))
	if err != nil {
		return nil, err
	}
	demos = append(demos, stitched)

	outs, err := checkDemos(cfg, demos)
	if err != nil {
		return nil, err
	}
	for i, d := range demos {
		out := outs[i]
		ok := out.FrozenImpossible && !out.RealSilent && out.RealRecovers
		pass = pass && ok
		table.AddRow(d.Name, d.Frozen.Graph().Name(), out.FrozenSilent, out.Illegitimate,
			out.FrozenImpossible, out.RealSilent, out.RealRecovers)
	}
	return &Result{
		ID:       "E7",
		Title:    "Theorem 1 impossibility, executed",
		PaperRef: "Theorem 1, Figures 1-2",
		Claim:    "stitched configurations are silent+illegitimate for ♦-1-stable variants; the real protocols detect the seam and recover",
		Table:    table,
		Pass:     pass,
	}, nil
}

// E8TheoremTwo executes the Theorem 2 construction on the rooted,
// dag-oriented network of Figure 3: even with a root and a
// dag-orientation, the k-stable variant deadlocks on a stitched silent
// illegitimate configuration.
func E8TheoremTwo(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	table := stats.NewTable("E8: Theorem 2 — no k-stable protocol even rooted + dag-oriented",
		"construction", "network", "frozen silent", "illegitimate", "impossibility witnessed",
		"real silent", "real recovers")
	pass := true

	hand, err := verify.Theorem2Coloring()
	if err != nil {
		return nil, err
	}
	stitched, _, err := verify.StitchSearchTheorem2Coloring(rng.DeriveString(cfg.Seed, "e8-stitch"))
	if err != nil {
		return nil, err
	}
	demos := []*verify.Demo{hand, stitched}
	outs, err := checkDemos(cfg, demos)
	if err != nil {
		return nil, err
	}
	for i, d := range demos {
		out := outs[i]
		ok := out.FrozenImpossible && !out.RealSilent && out.RealRecovers
		pass = pass && ok
		table.AddRow(d.Name, d.Frozen.Graph().Name(), out.FrozenSilent, out.Illegitimate,
			out.FrozenImpossible, out.RealSilent, out.RealRecovers)
	}
	return &Result{
		ID:       "E8",
		Title:    "Theorem 2 impossibility, executed",
		PaperRef: "Theorem 2, Figures 3-6",
		Claim:    "the rooted dag-oriented network of Figure 3 admits silent illegitimate stitches for k-stable variants",
		Table:    table,
		Pass:     pass,
		Notes:    "the dag-orientation is the color orientation of Theorem 4; the root is p1",
	}, nil
}

// checkDemos fans the independent Demo checks of E7/E8 out across the
// worker pool. Each demo's seed derives from its name, so the outcome
// vector is independent of Parallelism.
func checkDemos(cfg Config, demos []*verify.Demo) ([]verify.Outcome, error) {
	cfg = cfg.withDefaults()
	outs := make([]verify.Outcome, len(demos))
	err := engine.ForEachWorker(cfg.Parallelism, len(demos), func(_ *engine.WorkerCtx, i int) error {
		out, err := demos[i].Check(rng.DeriveString(cfg.Seed, demos[i].Name), cfg.MaxSteps)
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// E9DagOrientation reproduces Theorem 4: orienting every edge toward the
// greater color yields a directed acyclic graph, on every suite graph.
func E9DagOrientation(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E9: color order induces a dag-orientation (Theorem 4)",
		"graph", "n", "m", "#C", "acyclic", "sources", "sinks")
	pass := true
	for _, g := range graphs {
		colors := graph.GreedyLocalColoring(g)
		o, err := graph.OrientByColor(g, colors)
		if err != nil {
			return nil, err
		}
		acyclic := o.IsAcyclic()
		pass = pass && acyclic
		sources, sinks := 0, 0
		for p := 0; p < g.N(); p++ {
			if o.IsSource(p) {
				sources++
			}
			if o.IsSink(p) {
				sinks++
			}
		}
		table.AddRow(g.Name(), g.N(), g.M(), graph.ColorCount(colors), acyclic, sources, sinks)
	}
	return &Result{
		ID:       "E9",
		Title:    "local colors induce a dag",
		PaperRef: "Theorem 4",
		Claim:    "the oriented graph G' = (Π, {(p,q) : C.p ≺ C.q}) is acyclic",
		Table:    table,
		Pass:     pass,
	}, nil
}
