package bfstree

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/transformer"
)

func suite(t *testing.T) []*graph.Graph {
	t.Helper()
	r := rng.New(400)
	return []*graph.Graph{
		graph.Path(9), graph.Cycle(10), graph.Star(8), graph.Grid(3, 4),
		graph.BalancedBinaryTree(3), graph.RandomConnectedGNP(14, 0.25, r),
		graph.Lollipop(4, 5),
	}
}

func runOnce(t *testing.T, g *graph.Graph, spec *model.Spec, root int, seed uint64) *core.RunResult {
	t.Helper()
	sys, err := NewSystem(g, spec, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	res, err := core.Run(sys, cfg, core.RunOptions{
		Scheduler: sched.NewRandomSubset(seed),
		Seed:      seed,
		MaxSteps:  800000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBFSTreeConverges(t *testing.T) {
	for _, g := range suite(t) {
		for seed := uint64(0); seed < 3; seed++ {
			res := runOnce(t, g, Spec(), 0, seed)
			if !res.Silent || !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: silent=%v legit=%v", g, seed, res.Silent, res.LegitimateAtSilence)
			}
		}
	}
}

func TestBFSTreeDistancesExact(t *testing.T) {
	g := graph.Grid(4, 4)
	res := runOnce(t, g, Spec(), 5, 7)
	if !res.Silent {
		t.Fatal("no silence")
	}
	dist := g.BFS(5)
	for p := 0; p < g.N(); p++ {
		if res.Final.Comm(p, VarD) != dist[p] {
			t.Fatalf("process %d: D=%d, true distance %d", p, res.Final.Comm(p, VarD), dist[p])
		}
	}
	if Depth(res.Final) == 0 {
		t.Fatal("degenerate depth")
	}
}

func TestBFSTreeParentEdgesFormTree(t *testing.T) {
	g := graph.RandomConnectedGNP(15, 0.25, rng.New(8))
	res := runOnce(t, g, Spec(), 0, 9)
	if !res.Silent {
		t.Fatal("no silence")
	}
	parent := map[int]int{}
	for p := 0; p < g.N(); p++ {
		if pp := res.Final.Comm(p, VarP); pp != 0 {
			parent[p] = g.Neighbor(p, pp)
		}
	}
	if len(parent) != g.N()-1 {
		t.Fatalf("%d parent edges, want n-1 = %d", len(parent), g.N()-1)
	}
	// Every process reaches the root by following parent pointers, in at
	// most n hops.
	for p := 0; p < g.N(); p++ {
		cur, hops := p, 0
		for cur != 0 {
			next, ok := parent[cur]
			if !ok || hops > g.N() {
				t.Fatalf("process %d does not reach the root (stuck at %d)", p, cur)
			}
			cur, hops = next, hops+1
		}
	}
}

func TestBFSTreeIsFullRead(t *testing.T) {
	// The classical protocol reads every neighbor per step: witnessed
	// k-efficiency equals Δ (the cost the paper wants to beat).
	g := graph.Star(7)
	res := runOnce(t, g, Spec(), 1, 3) // root a leaf so the hub must relax
	if res.Report.KEfficiency != g.MaxDegree() {
		t.Fatalf("k-efficiency = %d, want Δ = %d", res.Report.KEfficiency, g.MaxDegree())
	}
}

func TestBFSTreeDifferentRoots(t *testing.T) {
	g := graph.Path(7)
	for root := 0; root < g.N(); root++ {
		res := runOnce(t, g, Spec(), root, uint64(root)+20)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("root %d: silent=%v legit=%v", root, res.Silent, res.LegitimateAtSilence)
		}
		if res.Final.Comm(root, VarD) != 0 || res.Final.Comm(root, VarP) != 0 {
			t.Fatalf("root %d not anchored", root)
		}
	}
}

func TestBFSTreeClosure(t *testing.T) {
	g := graph.Cycle(9)
	res := runOnce(t, g, Spec(), 0, 31)
	if !res.Silent {
		t.Fatal("no silence")
	}
	sys, err := NewSystem(g, Spec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := model.NewSimulator(sys, res.Final, sched.NewRandomSubset(32), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Final.Clone()
	for i := 0; i < 800; i++ {
		sim.Step()
		if !sim.Config().CommEqual(snap) {
			t.Fatalf("comm changed after silence at step %d", i)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := NewSystem(g, Spec(), -1); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := NewSystem(g, Spec(), 4); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestIsLegitimateRejects(t *testing.T) {
	g := graph.Path(4)
	sys, err := NewSystem(g, Spec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys) // all D=0: wrong distances
	if model.Legitimate(sys, cfg) {
		t.Fatal("all-zero configuration accepted")
	}
	// Correct distances but broken parent pointer.
	dist := g.BFS(0)
	for p := 0; p < g.N(); p++ {
		cfg.SetComm(p, VarD, dist[p])
		if p > 0 {
			cfg.SetComm(p, VarP, g.PortOf(p, p-1))
		}
	}
	if !model.Legitimate(sys, cfg) {
		t.Fatal("true BFS tree rejected")
	}
	cfg.SetComm(3, VarP, 0)
	if model.Legitimate(sys, cfg) {
		t.Fatal("orphaned process accepted")
	}
}

func TestTransformedBFSTreeConverges(t *testing.T) {
	// The transformer case study from the paper's concluding remarks:
	// the cached-view version of the full-read BFS protocol is
	// 1-efficient by construction; measured here, it also still
	// self-stabilizes on the suite.
	for _, g := range suite(t) {
		x, err := transformer.Transform(Spec(), g.MaxDegree())
		if err != nil {
			t.Fatal(err)
		}
		res := runOnce(t, g, x, 0, 77)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("%s: transformed BFS silent=%v legit=%v", g, res.Silent, res.LegitimateAtSilence)
		}
		if res.Report.KEfficiency > 1 {
			t.Fatalf("%s: transformed BFS read %d neighbors in one step", g, res.Report.KEfficiency)
		}
	}
}
