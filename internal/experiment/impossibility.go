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
// silent configuration that violates the predicate — searched for here,
// on the networks of Figures 1-2 and by the proof's cut-and-stitch
// procedure — while the paper's real 1-efficient protocols are not
// silent on the same configuration and recover from it.
func E7TheoremOne(cfg Config) (*Result, error) {
	return witnessResult(cfg, verify.TheoremOne, "E7: Theorem 1 — no ♦-k-stable neighbor-complete protocol (k < Δ)", &Result{
		ID:       "E7",
		Title:    "Theorem 1 impossibility, executed",
		PaperRef: "Theorem 1, Figures 1-2",
		Claim:    "stitched configurations are silent+illegitimate for ♦-1-stable variants; the real protocols detect the seam and recover",
	})
}

// E8TheoremTwo executes the Theorem 2 construction on the rooted,
// dag-oriented network of Figure 3: even with a root and a
// dag-orientation, the k-stable variant deadlocks on a silent
// illegitimate configuration.
func E8TheoremTwo(cfg Config) (*Result, error) {
	return witnessResult(cfg, verify.TheoremTwo, "E8: Theorem 2 — no k-stable protocol even rooted + dag-oriented", &Result{
		ID:       "E8",
		Title:    "Theorem 2 impossibility, executed",
		PaperRef: "Theorem 2, Figures 3-6",
		Claim:    "the rooted dag-oriented network of Figure 3 admits silent illegitimate stitches for k-stable variants",
		Notes:    "the dag-orientation is the color orientation of Theorem 4; the root is p1",
	})
}

// witnessResult fills res with one table row per witness. The checks fan
// out across the worker pool; each one's seed derives from the witness's
// name, so the table is independent of Parallelism. A witness passes
// when the frozen variant is witnessed impossible and the real protocol
// is not silent on it and recovers from it.
func witnessResult(cfg Config, witnesses func() ([]*verify.Demo, error), title string, res *Result) (*Result, error) {
	cfg = cfg.withDefaults()
	demos, err := witnesses()
	if err != nil {
		return nil, err
	}
	outs := make([]verify.Outcome, len(demos))
	err = engine.ForEachWorker(cfg.Parallelism, len(demos), func(_ *engine.WorkerCtx, i int) (err error) {
		outs[i], err = demos[i].Check(rng.DeriveString(cfg.Seed, demos[i].Name), cfg.MaxSteps)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Table = stats.NewTable(title,
		"construction", "network", "frozen silent", "illegitimate", "impossibility witnessed",
		"real silent", "real recovers")
	res.Pass = true
	for i, d := range demos {
		out := outs[i]
		res.Pass = res.Pass && out.FrozenImpossible && !out.RealSilent && out.RealRecovers
		res.Table.AddRow(d.Name, d.Frozen.Graph().Name(), out.FrozenSilent, out.Illegitimate,
			out.FrozenImpossible, out.RealSilent, out.RealRecovers)
	}
	return res, nil
}

// E9DagOrientation reproduces Theorem 4: orienting every edge toward the
// greater color yields a directed acyclic graph, on every suite graph.
func E9DagOrientation(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := graph.Suite(cfg.Seed, cfg.Quick)
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
