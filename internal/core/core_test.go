package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/rng"
	"repro/internal/sched"
)

func testRun(t *testing.T, opts RunOptions) (*RunResult, error) {
	t.Helper()
	g := graph.Cycle(6)
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(opts.Seed))
	return Run(sys, cfg, opts)
}

func TestRunRequiresScheduler(t *testing.T) {
	if _, err := testRun(t, RunOptions{MaxSteps: 10}); err == nil {
		t.Fatal("missing scheduler accepted")
	}
}

func TestRunRequiresMaxSteps(t *testing.T) {
	if _, err := testRun(t, RunOptions{Scheduler: sched.NewSynchronous()}); err == nil {
		t.Fatal("zero MaxSteps accepted")
	}
}

// TestLegitimacyComesFromTheSpec runs COLORING to silence twice: with no
// predicate in the options the spec's is evaluated, and an explicit one
// replaces it.
func TestLegitimacyComesFromTheSpec(t *testing.T) {
	opts := RunOptions{Scheduler: sched.NewRandomSubset(3), Seed: 3, MaxSteps: 100000}
	res, err := testRun(t, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatalf("spec predicate: silent=%v legit=%v", res.Silent, res.LegitimateAtSilence)
	}
	opts.Scheduler = sched.NewRandomSubset(3)
	opts.Legitimate = func(*model.System, *model.Config) bool { return false }
	if res, err = testRun(t, opts); err != nil {
		t.Fatal(err)
	}
	if !res.Silent || res.LegitimateAtSilence {
		t.Fatalf("replaced predicate: silent=%v legit=%v", res.Silent, res.LegitimateAtSilence)
	}
}

func TestRunConvergesAndMeasures(t *testing.T) {
	res, err := testRun(t, RunOptions{
		Scheduler:    sched.NewRandomSubset(5),
		Seed:         5,
		MaxSteps:     100000,
		SuffixRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatalf("silent=%v legit=%v", res.Silent, res.LegitimateAtSilence)
	}
	if res.Report.KEfficiency > 1 {
		t.Fatalf("k-efficiency %d", res.Report.KEfficiency)
	}
	if res.Report.SuffixRounds < 10 {
		t.Fatalf("suffix rounds = %d, want >= 10", res.Report.SuffixRounds)
	}
	if res.Final == nil {
		t.Fatal("no final configuration")
	}
	if res.StepsToSilence <= 0 && res.RoundsToSilence < 0 {
		t.Fatal("timing not recorded")
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	// With a tiny budget on a conflicted start, silence is typically not
	// reached; Run must report that without error.
	res, err := testRun(t, RunOptions{
		Scheduler: sched.NewCentralRandom(1),
		Seed:      1,
		MaxSteps:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent && res.StepsToSilence > 1 {
		t.Fatal("inconsistent result")
	}
}

func TestAggregate(t *testing.T) {
	results := []*RunResult{
		{Silent: true, LegitimateAtSilence: true, RoundsToSilence: 4, StepsToSilence: 40},
		{Silent: true, LegitimateAtSilence: true, RoundsToSilence: 7, StepsToSilence: 10},
		{Silent: false},
	}
	fold := func(results []*RunResult) Convergence {
		agg := NewConvergence()
		for _, r := range results {
			agg.Add(r)
		}
		return agg
	}
	agg := fold(results)
	if agg.Runs != 3 || agg.Converged != 2 {
		t.Fatalf("runs=%d converged=%d", agg.Runs, agg.Converged)
	}
	if agg.MaxRounds != 7 || agg.MaxSteps != 40 {
		t.Fatalf("max rounds=%d steps=%d", agg.MaxRounds, agg.MaxSteps)
	}
	if agg.LegitimateAll {
		t.Fatal("non-converged run should clear LegitimateAll")
	}
	agg2 := fold(results[:2])
	if !agg2.LegitimateAll {
		t.Fatal("all-legitimate runs should keep LegitimateAll")
	}
}
