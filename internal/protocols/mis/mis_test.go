package mis

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
)

func suite(t *testing.T) []*graph.Graph {
	t.Helper()
	r := rng.New(200)
	reg, err := graph.RandomRegular(12, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Complete(5), graph.Star(7),
		graph.Grid(3, 4), graph.BalancedBinaryTree(3),
		graph.RandomConnectedGNP(14, 0.25, r), reg,
		graph.TheoremOneSpider(3), graph.FigureNinePath(9),
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
		MaxSteps:     400000,
		SuffixRounds: suffix,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMISConvergesOnSuite(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		for seed := uint64(0); seed < 3; seed++ {
			res := runOnce(t, sys, sched.NewRandomSubset(seed), seed, 0)
			if !res.Silent {
				t.Fatalf("%s seed %d: MIS did not reach silence", g, seed)
			}
			if !res.LegitimateAtSilence {
				t.Fatalf("%s seed %d: silent configuration violates the MIS predicate", g, seed)
			}
		}
	}
}

func TestMISIsOneEfficient(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		res := runOnce(t, sys, sched.NewRandomSubset(1), 1, 2)
		if res.Report.KEfficiency > 1 {
			t.Fatalf("%s: MIS read %d neighbors in one step", g, res.Report.KEfficiency)
		}
	}
}

func TestMISRoundBound(t *testing.T) {
	// Lemma 4: silence within Δ × #C rounds, for any fair scheduler.
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
				t.Fatalf("%s/%s: silence after %d rounds exceeds Lemma 4 bound Δ×#C = %d",
					g, sc.Name(), res.RoundsToSilence, bound)
			}
		}
	}
}

func TestMISUnderAllSchedulers(t *testing.T) {
	g := graph.RandomConnectedGNP(12, 0.3, rng.New(6))
	sys := buildSystem(t, g, false)
	for _, name := range sched.Names() {
		sc, err := sched.ByName(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		res := runOnce(t, sys, sc, 5, 0)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("scheduler %s: silent=%v legit=%v", name, res.Silent, res.LegitimateAtSilence)
		}
	}
}

func TestMISStabilityBound(t *testing.T) {
	// Theorem 6: at least ⌊(Lmax+1)/2⌋ processes eventually read only one
	// neighbor. Measured on a long post-silence suffix.
	for _, g := range suite(t) {
		lmax, err := g.LongestPathExact(24)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		sys := buildSystem(t, g, false)
		res := runOnce(t, sys, sched.NewRandomSubset(3), 3, 8*g.N())
		if !res.Silent {
			t.Fatalf("%s: no silence", g)
		}
		stable := res.Report.StableProcesses(1)
		bound := StabilityBound(lmax)
		if stable < bound {
			t.Fatalf("%s: only %d 1-stable processes, Theorem 6 bound is %d (Lmax=%d)",
				g, stable, bound, lmax)
		}
	}
}

func TestFigureNineMatchesBound(t *testing.T) {
	// Figure 9: on a path, the dominated processes are exactly the
	// non-dominators, and the 1-stable count is at least ⌊n/2⌋.
	g := graph.FigureNinePath(9)
	sys := buildSystem(t, g, false)
	res := runOnce(t, sys, sched.NewRandomSubset(17), 17, 8*g.N())
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatal("Figure 9 run failed")
	}
	dominated := g.N() - DominatorCount(res.Final)
	stable := res.Report.StableProcesses(1)
	if stable < dominated {
		t.Fatalf("1-stable processes (%d) fewer than dominated processes (%d)", stable, dominated)
	}
	if stable < StabilityBound(g.N()-1) {
		t.Fatalf("stable=%d below Theorem 6 bound %d", stable, StabilityBound(g.N()-1))
	}
}

func TestDominatedAreDisabledAtSilence(t *testing.T) {
	// In a silent configuration every dominated process is disabled and
	// keeps pointing at a smaller-colored Dominator.
	g := graph.Grid(3, 4)
	sys := buildSystem(t, g, false)
	res := runOnce(t, sys, sched.NewRandomSubset(23), 23, 0)
	if !res.Silent {
		t.Fatal("no silence")
	}
	for p := 0; p < g.N(); p++ {
		if res.Final.Comm(p, VarS) == Dominated {
			if slices.Contains(ref.EnabledSet(sys, res.Final), p) {
				t.Fatalf("dominated process %d is enabled in a silent configuration", p)
			}
			cur := res.Final.Internal(p, VarCur)
			q := g.Neighbor(p, cur+1)
			if res.Final.Comm(q, VarS) != Dominator {
				t.Fatalf("dominated process %d points at a non-Dominator", p)
			}
			if sys.Const(q, ConstC) >= sys.Const(p, ConstC) {
				t.Fatalf("dominated %d points at %d with non-smaller color", p, q)
			}
		}
	}
}

func TestMISClosure(t *testing.T) {
	// Once silent and legitimate, the communication configuration never
	// changes again (silence re-verified by execution).
	g := graph.Cycle(8)
	sys := buildSystem(t, g, false)
	res := runOnce(t, sys, sched.NewRandomSubset(29), 29, 0)
	if !res.Silent {
		t.Fatal("no silence")
	}
	sim, err := model.NewSimulator(sys, res.Final, sched.NewRandomSubset(31), 31, nil)
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

func TestBaselineMISConverges(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, true)
		res := runOnce(t, sys, sched.NewRandomSubset(4), 4, 0)
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatalf("%s: baseline silent=%v legit=%v", g, res.Silent, res.LegitimateAtSilence)
		}
	}
}

func TestBaselineMISReadsAllNeighbors(t *testing.T) {
	g := graph.Star(6)
	sys := buildSystem(t, g, true)
	res := runOnce(t, sys, sched.NewCentralRoundRobin(), 3, 0)
	if res.Report.KEfficiency != g.MaxDegree() {
		t.Fatalf("baseline k-efficiency = %d, want Δ = %d", res.Report.KEfficiency, g.MaxDegree())
	}
}

func TestNewSystemRejectsBadColors(t *testing.T) {
	g := graph.Path(4)
	if _, err := NewSystem(g, Spec(3), []int{1, 1, 2, 1}); err == nil {
		t.Fatal("improper coloring accepted")
	}
	if _, err := NewSystem(g, Spec(3), []int{1, 2}); err == nil {
		t.Fatal("short coloring accepted")
	}
}

func TestInMISAndDominatorCount(t *testing.T) {
	g := graph.Path(3)
	sys := buildSystem(t, g, false)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, VarS, Dominator)
	cfg.SetComm(2, VarS, Dominator)
	in := InMIS(cfg)
	if !in[0] || in[1] || !in[2] {
		t.Fatalf("InMIS = %v", in)
	}
	if DominatorCount(cfg) != 2 {
		t.Fatal("DominatorCount wrong")
	}
	if !model.Legitimate(sys, cfg) {
		t.Fatal("{0,2} should be a legitimate MIS of a 3-path")
	}
	cfg.SetComm(1, VarS, Dominator)
	if model.Legitimate(sys, cfg) {
		t.Fatal("adjacent dominators accepted")
	}
}

func TestStabilityBoundFormula(t *testing.T) {
	cases := []struct{ lmax, want int }{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {8, 4}, {9, 5}}
	for _, c := range cases {
		if got := StabilityBound(c.lmax); got != c.want {
			t.Fatalf("StabilityBound(%d) = %d, want %d", c.lmax, got, c.want)
		}
	}
}
