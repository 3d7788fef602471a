package matching

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
	r := rng.New(300)
	reg, err := graph.RandomRegular(12, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Complete(5), graph.Star(7),
		graph.Grid(3, 4), graph.BalancedBinaryTree(3),
		graph.RandomConnectedGNP(14, 0.25, r), reg,
		graph.FigureElevenNetwork(),
	}
}

func buildSystem(t *testing.T, g *graph.Graph, baseline bool) *model.System {
	t.Helper()
	colors := graph.GreedyLocalColoring(g)
	maxColors := g.MaxDegree() + 1
	var spec *model.Spec
	if baseline {
		spec = BaselineSpec(maxColors)
	} else {
		spec = Spec(maxColors)
	}
	sys, err := NewSystem(g, spec, colors)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func runOnce(t *testing.T, sys *model.System, sch model.Scheduler, seed uint64, suffix int) *core.RunResult {
	t.Helper()
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	res, err := core.Run(sys, cfg, core.RunOptions{
		Scheduler:    sch,
		Seed:         seed,
		MaxSteps:     600000,
		SuffixRounds: suffix,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMatchingConvergesOnSuite(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		for seed := uint64(0); seed < 3; seed++ {
			res := runOnce(t, sys, sched.NewRandomSubset(seed), seed, 0)
			if !res.Silent {
				t.Fatalf("%s seed %d: MATCHING did not reach silence", g, seed)
			}
			if !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: silent configuration is not a maximal matching", g, seed)
			}
		}
	}
}

func TestMatchingIsOneEfficient(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		res := runOnce(t, sys, sched.NewRandomSubset(1), 1, 2)
		if res.Report.KEfficiency > 1 {
			t.Fatalf("%s: MATCHING read %d neighbors in one step", g, res.Report.KEfficiency)
		}
	}
}

func TestMatchingRoundBound(t *testing.T) {
	// Lemma 9: silence within (Δ+1)n + 2 rounds under any fair scheduler.
	schedulers := []model.Scheduler{
		sched.NewSynchronous(),
		sched.NewCentralRoundRobin(),
		sched.NewRandomSubset(7),
		sched.NewLaziestFair(),
	}
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		bound := RoundBound(sys)
		for _, sc := range schedulers {
			res := runOnce(t, sys, sc, 11, 0)
			if !res.Silent {
				t.Fatalf("%s/%s: no silence", g, sc.Name())
			}
			if res.RoundsToSilence > bound {
				t.Fatalf("%s/%s: silence after %d rounds exceeds Lemma 9 bound (Δ+1)n+2 = %d",
					g, sc.Name(), res.RoundsToSilence, bound)
			}
		}
	}
}

func TestMatchingStabilityBound(t *testing.T) {
	// Theorem 8: at least 2⌈m/(2Δ-1)⌉ processes are eventually matched
	// and hence 1-stable.
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		res := runOnce(t, sys, sched.NewRandomSubset(3), 3, 8*g.N())
		if !res.Silent {
			t.Fatalf("%s: no silence", g)
		}
		bound := StabilityBound(g.M(), g.MaxDegree())
		married := MarriedCount(sys, res.Final)
		if married < bound {
			t.Fatalf("%s: %d married processes below Theorem 8 bound %d", g, married, bound)
		}
		stable := res.Report.StableProcesses(1)
		if stable < bound {
			t.Fatalf("%s: only %d 1-stable processes, Theorem 8 bound is %d", g, stable, bound)
		}
		if stable < married {
			t.Fatalf("%s: married processes (%d) should all be 1-stable, got %d", g, married, stable)
		}
	}
}

func TestFigureElevenMatchesBound(t *testing.T) {
	// Figure 11: Δ=4, m=14 — the bound 2⌈m/(2Δ-1)⌉ = 4 is achievable:
	// a maximal matching of size 2 exists, and the protocol always
	// matches at least 4 processes.
	g := graph.FigureElevenNetwork()
	if StabilityBound(g.M(), g.MaxDegree()) != 4 {
		t.Fatalf("Figure 11 bound = %d, want 4", StabilityBound(g.M(), g.MaxDegree()))
	}
	sys := buildSystem(t, g, false)
	for seed := uint64(0); seed < 5; seed++ {
		res := runOnce(t, sys, sched.NewRandomSubset(seed), seed, 0)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("seed %d: silent=%v legit=%v", seed, res.Silent, res.LegitimateAtSilence)
		}
		if MarriedCount(sys, res.Final) < 4 {
			t.Fatalf("seed %d: fewer than 4 married processes", seed)
		}
	}
}

func TestPRAlignedAfterFirstRound(t *testing.T) {
	// Lemma 7: after the first round every process satisfies
	// PR.p ∈ {0, cur.p} forever.
	g := graph.Grid(3, 3)
	sys := buildSystem(t, g, false)
	cfg := model.NewRandomConfig(sys, rng.New(41))
	sim, err := model.NewSimulator(sys, cfg, sched.NewRandomSubset(41), 41, nil)
	if err != nil {
		t.Fatal(err)
	}
	for sim.Rounds() < 1 {
		sim.Step()
	}
	for i := 0; i < 2000; i++ {
		sim.Step()
		c := sim.Config()
		for p := 0; p < g.N(); p++ {
			pr := c.Comm(p, VarPR)
			if pr != 0 && pr != c.Internal(p, VarCur)+1 {
				t.Fatalf("step %d: process %d violates PR ∈ {0, cur} after first round", i, p)
			}
		}
	}
}

func TestEveryProcessFreeOrMarriedAtSilence(t *testing.T) {
	// Lemma 5: in any silent configuration every process is either free
	// or married.
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		res := runOnce(t, sys, sched.NewRandomSubset(47), 47, 0)
		if !res.Silent {
			t.Fatalf("%s: no silence", g)
		}
		matchedWith := make(map[int]bool)
		for _, e := range MatchedEdges(sys, res.Final) {
			matchedWith[e[0]] = true
			matchedWith[e[1]] = true
		}
		for p := 0; p < g.N(); p++ {
			free := res.Final.Comm(p, VarPR) == 0
			if !free && !matchedWith[p] {
				t.Fatalf("%s: process %d neither free nor married at silence", g, p)
			}
		}
	}
}

func TestMatchingClosure(t *testing.T) {
	g := graph.Cycle(8)
	sys := buildSystem(t, g, false)
	res := runOnce(t, sys, sched.NewRandomSubset(53), 53, 0)
	if !res.Silent {
		t.Fatal("no silence")
	}
	sim, err := model.NewSimulator(sys, res.Final, sched.NewRandomSubset(59), 59, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := res.Final.Clone()
	for i := 0; i < 1000; i++ {
		sim.Step()
		if !sim.Config().CommEqual(snapshot) {
			t.Fatalf("communication state changed after silence at step %d", i)
		}
	}
}

func TestBaselineMatchingConverges(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, true)
		for seed := uint64(0); seed < 2; seed++ {
			res := runOnce(t, sys, sched.NewRandomSubset(seed), seed, 0)
			if !res.Silent {
				t.Fatalf("%s seed %d: baseline did not reach silence", g, seed)
			}
			if !model.Legitimate(sys, res.Final) {
				t.Fatalf("%s seed %d: baseline silent but illegitimate", g, seed)
			}
		}
	}
}

func TestBaselineMatchingReadsAllNeighbors(t *testing.T) {
	g := graph.Star(6)
	sys := buildSystem(t, g, true)
	res := runOnce(t, sys, sched.NewCentralRoundRobin(), 3, 0)
	if res.Report.KEfficiency != g.MaxDegree() {
		t.Fatalf("baseline k-efficiency = %d, want Δ = %d", res.Report.KEfficiency, g.MaxDegree())
	}
}

func TestMatchedEdgesDecoding(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	sys := buildSystem(t, g, false)
	cfg := model.NewZeroConfig(sys)
	// Marry 1 and 2: set PR pointers at each other, M flags true.
	cfg.SetComm(1, VarPR, g.PortOf(1, 2))
	cfg.SetComm(2, VarPR, g.PortOf(2, 1))
	cfg.SetComm(1, VarM, 1)
	cfg.SetComm(2, VarM, 1)
	// Align cur with PR so the configuration is action-free.
	cfg.SetInternal(1, VarCur, g.PortOf(1, 2)-1)
	cfg.SetInternal(2, VarCur, g.PortOf(2, 1)-1)
	edges := MatchedEdges(sys, cfg)
	if len(edges) != 1 || edges[0] != [2]int{1, 2} {
		t.Fatalf("MatchedEdges = %v, want [[1 2]]", edges)
	}
	if MarriedCount(sys, cfg) != 2 {
		t.Fatal("MarriedCount wrong")
	}
	if !model.Legitimate(sys, cfg) {
		t.Fatal("{1-2} with exact flags should be a legitimate maximal matching of a 4-path")
	}
}

func TestIsLegitimateRejectsStaleFlags(t *testing.T) {
	g := graph.Path(4)
	sys := buildSystem(t, g, false)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, VarM, 1) // claims married but is free
	if model.Legitimate(sys, cfg) {
		t.Fatal("stale married flag accepted")
	}
}

func TestStabilityBoundFormula(t *testing.T) {
	cases := []struct{ m, delta, want int }{
		{14, 4, 4}, // Figure 11
		{7, 2, 6},  // path-8: ⌈7/3⌉ = 3 edges → 6 processes
		{10, 4, 4}, // K5
		{1, 1, 2},  // single edge
		{12, 3, 6}, // ⌈12/5⌉ = 3
	}
	for _, c := range cases {
		if got := StabilityBound(c.m, c.delta); got != c.want {
			t.Fatalf("StabilityBound(%d,%d) = %d, want %d", c.m, c.delta, got, c.want)
		}
	}
}
