package coloring

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

func suite(t *testing.T) []*graph.Graph {
	t.Helper()
	r := rng.New(100)
	reg, err := graph.RandomRegular(12, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Complete(5), graph.Star(7),
		graph.Grid(3, 4), graph.BalancedBinaryTree(3),
		graph.RandomConnectedGNP(14, 0.25, r), reg,
		graph.TheoremOneSpider(3),
	}
}

func runOnce(t *testing.T, g *graph.Graph, spec *model.Spec, sch model.Scheduler, seed uint64, suffix int) *core.RunResult {
	t.Helper()
	sys, err := model.NewSystem(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	res, err := core.Run(sys, cfg, core.RunOptions{
		Scheduler:    sch,
		Seed:         seed,
		MaxSteps:     200000,
		SuffixRounds: suffix,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestColoringConvergesOnSuite(t *testing.T) {
	for _, g := range suite(t) {
		for seed := uint64(0); seed < 3; seed++ {
			res := runOnce(t, g, Spec(), sched.NewRandomSubset(seed), seed, 0)
			if !res.Silent {
				t.Fatalf("%s seed %d: COLORING did not reach silence", g, seed)
			}
			if !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: silent configuration is not a proper coloring", g, seed)
			}
		}
	}
}

func TestColoringIsOneEfficient(t *testing.T) {
	// Theorem 3: every step reads the communication variables of at most
	// one neighbor — verified on the recorded execution.
	for _, g := range suite(t) {
		res := runOnce(t, g, Spec(), sched.NewRandomSubset(1), 1, 0)
		if res.Report.KEfficiency > 1 {
			t.Fatalf("%s: COLORING read %d neighbors in one step", g, res.Report.KEfficiency)
		}
	}
}

func TestColoringUnderAllSchedulers(t *testing.T) {
	g := graph.RandomConnectedGNP(12, 0.3, rng.New(5))
	schedulers := []model.Scheduler{
		sched.NewSynchronous(),
		sched.NewCentralRoundRobin(),
		sched.NewCentralRandom(3),
		sched.NewRandomSubset(3),
		sched.NewEnabledBiased(3),
		sched.NewLaziestFair(),
	}
	for _, sc := range schedulers {
		res := runOnce(t, g, Spec(), sc, 7, 0)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("scheduler %s: silent=%v legit=%v", sc.Name(), res.Silent, res.LegitimateAtSilence)
		}
	}
}

func TestColoringClosure(t *testing.T) {
	// Lemma 1: the vertex coloring predicate is closed: starting from a
	// legitimate configuration the system stays legitimate.
	g := graph.Cycle(8)
	sys, err := model.NewSystem(g, Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys)
	for p := 0; p < g.N(); p++ {
		cfg.SetComm(p, VarC, p%2) // proper 2-coloring of an even cycle
	}
	sim, err := model.NewSimulator(sys, cfg, sched.NewRandomSubset(9), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		sim.Step()
		if !model.Legitimate(sys, sim.Config()) {
			t.Fatalf("legitimacy violated at step %d", i)
		}
	}
}

func TestSilentIffProperColoring(t *testing.T) {
	// For COLORING, a configuration is silent exactly when the coloring
	// is proper: any conflict enables the randomized recolor action of
	// one of the conflicting processes once cur points there, and a
	// proper coloring disables it forever.
	g := graph.Path(5)
	sys, err := model.NewSystem(g, Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		cfg := model.NewRandomConfig(sys, r)
		silent, err := model.CommSilent(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if silent != model.Legitimate(sys, cfg) {
			t.Fatalf("silence (%v) and legitimacy (%v) disagree on %v",
				silent, model.Legitimate(sys, cfg), Colors(cfg))
		}
	}
}

func TestBaselineConverges(t *testing.T) {
	for _, g := range suite(t) {
		res := runOnce(t, g, BaselineSpec(), sched.NewRandomSubset(2), 2, 0)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("%s: baseline silent=%v legit=%v", g, res.Silent, res.LegitimateAtSilence)
		}
	}
}

func TestBaselineReadsAllNeighbors(t *testing.T) {
	// §3.2: the traditional protocol reads every neighbor at each step;
	// its witnessed efficiency equals Δ on any graph where a process of
	// degree Δ is ever selected.
	g := graph.Star(6)
	res := runOnce(t, g, BaselineSpec(), sched.NewCentralRoundRobin(), 3, 0)
	if res.Report.KEfficiency != g.MaxDegree() {
		t.Fatalf("baseline k-efficiency = %d, want Δ = %d", res.Report.KEfficiency, g.MaxDegree())
	}
}

func TestCommunicationComplexityBits(t *testing.T) {
	// §3.2 worked example: COLORING reads log(Δ+1) bits per step; the
	// baseline reads Δ·log(Δ+1).
	g := graph.Complete(5) // Δ = 4, palette 5, log2(5) rounded up = 3 bits
	wantPer := model.BitsFor(g.MaxDegree() + 1)

	eff := runOnce(t, g, Spec(), sched.NewCentralRoundRobin(), 4, 0)
	if eff.Report.CommComplexityBits != wantPer {
		t.Fatalf("efficient comm complexity = %d bits, want %d", eff.Report.CommComplexityBits, wantPer)
	}
	base := runOnce(t, g, BaselineSpec(), sched.NewCentralRoundRobin(), 4, 0)
	if base.Report.CommComplexityBits != g.MaxDegree()*wantPer {
		t.Fatalf("baseline comm complexity = %d bits, want %d",
			base.Report.CommComplexityBits, g.MaxDegree()*wantPer)
	}
}

func TestColorsDecoding(t *testing.T) {
	g := graph.Path(3)
	sys, err := model.NewSystem(g, Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(1, VarC, 2)
	colors := Colors(cfg)
	if colors[0] != 1 || colors[1] != 3 || colors[2] != 1 {
		t.Fatalf("Colors = %v, want paper-facing 1-based colors [1 3 1]", colors)
	}
}

func TestWorstCaseAllSameColor(t *testing.T) {
	// The canonical adversarial start: a monochromatic clique.
	g := graph.Complete(6)
	sys, err := model.NewSystem(g, Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys)
	res, err := core.Run(sys, cfg, core.RunOptions{
		Scheduler: sched.NewRandomSubset(13),
		Seed:      13,
		MaxSteps:  200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatal("monochromatic clique did not converge to a proper coloring")
	}
}
