package frozen

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

func TestSpecsValidate(t *testing.T) {
	if err := ColoringSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := MISSpec(4).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := MatchingSpec(4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFrozenSpecsShareVariableLayout(t *testing.T) {
	// Frozen variants must keep the variable layout of the real
	// protocols so configurations are interchangeable.
	if len(ColoringSpec().Comm) != len(coloring.Spec().Comm) ||
		len(ColoringSpec().Internal) != len(coloring.Spec().Internal) {
		t.Fatal("frozen coloring changed the variable layout")
	}
	if len(MISSpec(4).Comm) != len(mis.Spec(4).Comm) ||
		len(MISSpec(4).Const) != len(mis.Spec(4).Const) {
		t.Fatal("frozen MIS changed the variable layout")
	}
	if len(MatchingSpec(4).Comm) != len(matching.Spec(4).Comm) {
		t.Fatal("frozen matching changed the variable layout")
	}
}

func TestFrozenColoringIsEventuallyOneStable(t *testing.T) {
	// The defining property Theorems 1-2 forbid: after stabilizing, every
	// process reads at most one (fixed) neighbor.
	g := graph.Cycle(8)
	sys, err := model.NewSystem(g, ColoringSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(3))
	res, err := core.Run(sys, cfg, core.RunOptions{
		Scheduler:    sched.NewRandomSubset(3),
		Seed:         3,
		MaxSteps:     100000,
		SuffixRounds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("frozen coloring did not reach a silent configuration")
	}
	if rep := res.Report; rep.StableProcesses(1) < rep.N {
		t.Fatalf("frozen coloring: %d of %d processes read at most one neighbor in the suffix, want all",
			rep.StableProcesses(1), rep.N)
	}
	if res.Report.KEfficiency > 1 {
		t.Fatal("frozen coloring is not 1-efficient")
	}
}

func TestFrozenColoringSometimesDeadlocksIllegitimately(t *testing.T) {
	// The broken-ness: across many runs on an odd cycle, some silent
	// outcome must violate the coloring predicate (Theorem 1 guarantees
	// bad silent configurations exist; random starts find them).
	g := graph.Cycle(5)
	sys, err := model.NewSystem(g, ColoringSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sawIllegitimate := false
	for seed := uint64(0); seed < 60 && !sawIllegitimate; seed++ {
		cfg := model.NewRandomConfig(sys, rng.New(seed))
		res, err := core.Run(sys, cfg, core.RunOptions{
			Scheduler: sched.NewRandomSubset(seed),
			Seed:      seed,
			MaxSteps:  50000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Silent && !res.LegitimateAtSilence {
			sawIllegitimate = true
		}
	}
	if !sawIllegitimate {
		t.Fatal("frozen coloring never deadlocked illegitimately in 60 runs; the broken variant looks correct")
	}
}

func TestFrozenMISDeadlocksIllegitimately(t *testing.T) {
	g := graph.Path(6)
	colors := []int{1, 2, 3, 1, 2, 3}
	sys, err := mis.NewSystem(g, MISSpec(3), colors)
	if err != nil {
		t.Fatal(err)
	}
	sawIllegitimate := false
	for seed := uint64(0); seed < 80 && !sawIllegitimate; seed++ {
		cfg := model.NewRandomConfig(sys, rng.New(seed))
		res, err := core.Run(sys, cfg, core.RunOptions{
			Scheduler: sched.NewRandomSubset(seed),
			Seed:      seed,
			MaxSteps:  50000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Silent && !res.LegitimateAtSilence {
			sawIllegitimate = true
		}
	}
	if !sawIllegitimate {
		t.Fatal("frozen MIS never deadlocked illegitimately in 80 runs")
	}
}

func TestFrozenMatchingDeadlocksIllegitimately(t *testing.T) {
	g := graph.Path(8)
	colors := graph.GreedyLocalColoring(g)
	sys, err := matching.NewSystem(g, MatchingSpec(g.MaxDegree()+1), colors)
	if err != nil {
		t.Fatal(err)
	}
	sawIllegitimate := false
	for seed := uint64(0); seed < 120 && !sawIllegitimate; seed++ {
		cfg := model.NewRandomConfig(sys, rng.New(seed))
		res, err := core.Run(sys, cfg, core.RunOptions{
			Scheduler: sched.NewRandomSubset(seed),
			Seed:      seed,
			MaxSteps:  50000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Silent && !res.LegitimateAtSilence {
			sawIllegitimate = true
		}
	}
	if !sawIllegitimate {
		t.Fatal("frozen matching never deadlocked illegitimately in 120 runs")
	}
}
