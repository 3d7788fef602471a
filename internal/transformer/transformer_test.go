package transformer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
	"repro/internal/sched"
)

func TestTransformValidation(t *testing.T) {
	if _, err := Transform(&model.Spec{}, 3); err == nil {
		t.Fatal("invalid original spec accepted")
	}
	if _, err := Transform(coloring.BaselineSpec(), 0); err == nil {
		t.Fatal("delta 0 accepted")
	}
}

func TestTransformLayout(t *testing.T) {
	orig := mis.BaselineSpec(5)
	x, err := Transform(orig, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(x.Comm) != len(orig.Comm) || len(x.Const) != len(orig.Const) {
		t.Fatal("transform changed the communication interface")
	}
	// internals: orig (0) + cur + 4 ports × (1 comm + 1 const).
	want := 0 + 1 + 4*2
	if len(x.Internal) != want {
		t.Fatalf("internal count = %d, want %d", len(x.Internal), want)
	}
	// refresh + originals + advance.
	if len(x.Actions) != len(orig.Actions)+2 {
		t.Fatalf("action count = %d, want %d", len(x.Actions), len(orig.Actions)+2)
	}
}

// runTransformed runs orig's transformed spec from a random configuration;
// LegitimateAtSilence is orig's predicate, which the transformed spec keeps.
func runTransformed(t *testing.T, g *graph.Graph, orig *model.Spec, consts [][]int, seed uint64) *core.RunResult {
	t.Helper()
	x, err := Transform(orig, g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := model.NewSystem(g, x, consts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	res, err := core.Run(sys, cfg, core.RunOptions{
		Scheduler:    sched.NewRandomSubset(seed),
		Seed:         seed,
		MaxSteps:     800000,
		SuffixRounds: 4 * g.N(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func colorConsts(g *graph.Graph) [][]int {
	colors := graph.GreedyLocalColoring(g)
	consts := make([][]int, g.N())
	for p := range consts {
		consts[p] = []int{colors[p] - 1}
	}
	return consts
}

func TestTransformedColoringConverges(t *testing.T) {
	// The transformed full-read coloring must still self-stabilize: its
	// randomized repair tolerates stale caches (a spurious recolor is
	// harmless; a missed conflict is caught on a later refresh).
	for _, g := range []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Complete(5), graph.Grid(3, 4),
		graph.RandomConnectedGNP(12, 0.3, rng.New(5)),
	} {
		for seed := uint64(0); seed < 3; seed++ {
			res := runTransformed(t, g, coloring.BaselineSpec(), nil, seed)
			if !res.Silent || !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: transformed coloring silent=%v legit=%v",
					g, seed, res.Silent, res.LegitimateAtSilence)
			}
		}
	}
}

func TestTransformedIsOneEfficient(t *testing.T) {
	// 1-efficiency holds by construction for ANY transformed protocol:
	// only the refresh action communicates, with exactly one neighbor.
	g := graph.Grid(3, 4)
	for name, run := range map[string]*core.RunResult{
		"coloring": runTransformed(t, g, coloring.BaselineSpec(), nil, 1),
		"mis":      runTransformed(t, g, mis.BaselineSpec(g.MaxDegree()+1), colorConsts(g), 1),
	} {
		if run.Report.KEfficiency > 1 {
			t.Fatalf("%s: transformed protocol read %d neighbors in one step", name, run.Report.KEfficiency)
		}
	}
}

func TestTransformedMISConverges(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Grid(3, 4),
	} {
		for seed := uint64(0); seed < 3; seed++ {
			res := runTransformed(t, g, mis.BaselineSpec(g.MaxDegree()+1), colorConsts(g), seed)
			if !res.Silent || !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: transformed MIS silent=%v legit=%v",
					g, seed, res.Silent, res.LegitimateAtSilence)
			}
		}
	}
}

func TestTransformedMatchingConverges(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(8), graph.Cycle(9),
	} {
		for seed := uint64(0); seed < 3; seed++ {
			res := runTransformed(t, g, matching.BaselineSpec(g.MaxDegree()+1), colorConsts(g), seed)
			if !res.Silent || !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: transformed matching silent=%v legit=%v",
					g, seed, res.Silent, res.LegitimateAtSilence)
			}
		}
	}
}

func TestTransformedSilenceIsPreserved(t *testing.T) {
	// Once a transformed run is silent, the communication configuration
	// never changes again (the refresh/advance churn is internal only).
	g := graph.Cycle(8)
	res := runTransformed(t, g, coloring.BaselineSpec(), nil, 9)
	if !res.Silent {
		t.Fatal("no silence")
	}
	x, err := Transform(coloring.BaselineSpec(), g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := model.NewSystem(g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := model.NewSimulator(sys, res.Final, sched.NewRandomSubset(11), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := res.Final.Clone()
	for i := 0; i < 800; i++ {
		sim.Step()
		if !sim.Config().CommEqual(snapshot) {
			t.Fatalf("comm changed at step %d after silence", i)
		}
	}
}

func TestCachedViewDoesNotRecordReads(t *testing.T) {
	// The cached original actions must not count as communication: in a
	// silent transformed system, each step reads at most the one real
	// neighbor probed by the staleness check.
	g := graph.Star(6)
	res := runTransformed(t, g, coloring.BaselineSpec(), nil, 3)
	if !res.Silent {
		t.Fatal("no silence")
	}
	if res.Report.KEfficiency != 1 {
		t.Fatalf("k-efficiency = %d, want exactly 1", res.Report.KEfficiency)
	}
	// Bits per step are bounded by one neighbor's comm vars (the hub has
	// degree 5; full-read would cost 5x).
	perColor := model.BitsFor(g.MaxDegree() + 1)
	if res.Report.CommComplexityBits != perColor {
		t.Fatalf("comm complexity = %d bits, want %d", res.Report.CommComplexityBits, perColor)
	}
}
