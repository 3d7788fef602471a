package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/protocols/bfstree"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
	"repro/internal/sched"
)

// runnerTestSystems builds a small heterogeneous suite: different graphs,
// protocols, and state shapes, so runner reuse is exercised across
// rebinds.
func runnerTestSystems(t *testing.T) []struct {
	name string
	sys  *model.System
} {
	t.Helper()
	colSys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	baseSys, err := model.NewSystem(graph.Star(6), coloring.BaselineSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(3, 3)
	misSys, err := mis.NewSystem(g, mis.Spec(g.MaxDegree()+1), graph.GreedyLocalColoring(g))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		sys  *model.System
	}{
		{"coloring-cycle9", colSys},
		{"coloring-baseline-star6", baseSys},
		{"mis-grid3x3", misSys},
	}
}

// TestRunnerMatchesRun is the pooled/unpooled equivalence at the run
// level: one Runner reused across systems, schedulers and seeds must
// produce results deep-equal to the one-shot Run path (which builds a
// fresh recorder, simulator and scheduler per call).
func TestRunnerMatchesRun(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	schedulers := []struct {
		name string
		mk   func(uint64) model.Scheduler
	}{
		{"random-subset", func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }},
		{"synchronous", func(uint64) model.Scheduler { return sched.NewSynchronous() }},
		{"central-rr", func(uint64) model.Scheduler { return sched.NewCentralRoundRobin() }},
		{"laziest-fair", func(uint64) model.Scheduler { return sched.NewLaziestFair() }},
	}
	rn := NewRunner()
	var res RunResult // reused across every trial below
	for _, ts := range systems {
		for _, sc := range schedulers {
			for seed := uint64(1); seed <= 3; seed++ {
				opts := RunOptions{
					Seed:         seed,
					MaxSteps:     200000,
					SuffixRounds: 4,
				}

				opts.Scheduler = sc.mk(seed)
				initial := model.NewRandomConfig(ts.sys, rng.New(seed))
				want, err := Run(ts.sys, initial, opts)
				if err != nil {
					t.Fatalf("%s/%s/%d: one-shot: %v", ts.name, sc.name, seed, err)
				}

				opts.Scheduler = rn.Scheduler(sc.name, seed, sc.mk)
				if err := rn.RunRandom(ts.sys, opts, &res); err != nil {
					t.Fatalf("%s/%s/%d: runner: %v", ts.name, sc.name, seed, err)
				}
				if !reflect.DeepEqual(*want, res) {
					t.Fatalf("%s/%s/%d: runner result differs from one-shot Run:\nwant %+v\ngot  %+v",
						ts.name, sc.name, seed, *want, res)
				}
			}
		}
	}
}

// TestRunnerResultsDoNotAliasRunner: a materialized result must survive
// the runner's next trial untouched.
func TestRunnerResultsDoNotAliasRunner(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	sys := systems[0].sys
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()

	run := func(seed uint64) *RunResult {
		res := &RunResult{}
		err := rn.RunRandom(sys, RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed, MaxSteps: 200000, SuffixRounds: 2,
		}, res)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(7)
	snapshot := *first
	snapshot.Final = first.Final.Clone()
	snapshot.Report.SuffixReadSetHist = append([]int(nil), first.Report.SuffixReadSetHist...)

	run(8) // second trial on the same runner
	if !first.Final.Equal(snapshot.Final) {
		t.Fatal("first trial's Final mutated by the runner's second trial")
	}
	if !reflect.DeepEqual(first.Report, snapshot.Report) {
		t.Fatal("first trial's Report mutated by the runner's second trial")
	}
}

// TestFinalIsHandedOver: a trial's Final is the buffer the run mutated,
// not a copy. A result passed to the runner again gives its Final back
// as the next initial-configuration buffer, so a reused result
// alternates between two buffers, and a result the caller stops passing
// keeps its Final through the runner's later trials. Every Final holds
// what the one-shot Run computes.
func TestFinalIsHandedOver(t *testing.T) {
	t.Parallel()
	sys := runnerTestSystems(t)[0].sys
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	run := func(seed uint64, res *RunResult) {
		t.Helper()
		opts := RunOptions{Scheduler: rn.Scheduler("random-subset", seed, mk), Seed: seed, MaxSteps: 200000}
		if err := rn.RunRandom(sys, opts, res); err != nil {
			t.Fatal(err)
		}
		opts.Scheduler = mk(seed)
		want, err := Run(sys, model.NewRandomConfig(sys, rng.New(seed)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Final.Equal(want.Final) {
			t.Fatalf("seed %d: Final differs from the one-shot Run's", seed)
		}
	}
	var res RunResult
	run(1, &res)
	a := res.Final
	run(2, &res)
	b := res.Final
	if a == b {
		t.Fatal("a reused result's second trial ran in its first trial's Final")
	}
	run(3, &res)
	if res.Final != a || rn.InitialConfig(sys) != b {
		t.Fatal("a reused result does not alternate between two buffers")
	}

	kept := res.Final.Clone()
	var other RunResult
	run(4, &other)
	run(5, &other)
	if !res.Final.Equal(kept) {
		t.Fatal("a result's Final changed in the runner's later trials into another result")
	}
}

// TestZeroPlan: a plain trial is the trial body under the zero plan.
// RunFaulted still refuses that plan with its own error (the exported
// guard is input checking: a caller that means a plain trial says Run)
// while Run, from the same buffer, is not refused; Trial accepts it, and
// on a result buffer a faulted trial has just filled it returns Run's
// result with the fault side zeroed, from a snapshot and from a random
// start alike.
func TestZeroPlan(t *testing.T) {
	t.Parallel()
	ts := runnerTestSystems(t)[2]
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	opts := func(seed uint64) RunOptions {
		return RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed, MaxSteps: 200000, SuffixRounds: 2,
		}
	}
	var fres FaultResult
	start := model.NewRandomConfig(ts.sys, rng.New(5))
	rn.InitialConfig(ts.sys).CopyFrom(start)
	err := rn.RunFaulted(ts.sys, opts(5), fault.Plan{}, &fres)
	if err == nil || err.Error() != "core: RunFaulted without an adversary or churn adversary" {
		t.Fatalf("RunFaulted with the zero plan: error %v, want the missing-adversary refusal", err)
	}
	var want RunResult
	if err := rn.Run(ts.sys, opts(5), &want); err != nil {
		t.Fatalf("Run from the buffer RunFaulted refused: %v", err)
	}

	for _, from := range []*model.Config{start, nil} {
		plan := fault.Plan{Adversary: fault.NewUniform(3), Schedule: fault.OnSilence(2)}
		if err := rn.Trial(ts.sys, from, opts(5), plan, &fres); err != nil {
			t.Fatal(err)
		}
		if fres.Injections != 2 || len(fres.Episodes) != 2 {
			t.Fatalf("test setup: faulted trial performed %d injections in %d episodes, want 2 and 2", fres.Injections, len(fres.Episodes))
		}
		if err := rn.Trial(ts.sys, from, opts(5), fault.Plan{}, &fres); err != nil {
			t.Fatalf("Trial with the zero plan: %v", err)
		}
		if fres.Injections != 0 || fres.ChurnEvents != 0 || fres.Recovered != 0 || len(fres.Episodes) != 0 {
			t.Fatalf("zero plan left a fault side behind: %+v", fres)
		}
		if from == nil {
			if err := rn.RunRandom(ts.sys, opts(5), &want); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(want, fres.RunResult) {
			t.Fatalf("Trial with the zero plan differs from the plain wrapper:\nwant %+v\ngot  %+v", want, fres.RunResult)
		}
	}
}

// TestTrialLoopZeroAlloc is the tentpole acceptance check: a complete
// steady-state pooled trial — scheduler reset, random initial
// configuration, recorder+simulator reset, run to silence, the legitimacy
// predicate at silence, suffix recording, ReportInto, final-configuration
// hand-over (the reused result and the runner trade two buffers) —
// allocates nothing, for every protocol family with a predicate of its
// own. The trial carries a no-op event scope: observation plumbing is
// part of the 0 allocs/op contract.
func TestTrialLoopZeroAlloc(t *testing.T) {
	g := graph.Cycle(9)
	palette := g.MaxDegree() + 1
	for _, tc := range []struct {
		name string
		sys  func() (*model.System, error)
	}{
		{"coloring", func() (*model.System, error) { return model.NewSystem(g, coloring.Spec(), nil) }},
		{"mis", func() (*model.System, error) { return mis.NewSystem(g, mis.Spec(palette), nil) }},
		{"matching", func() (*model.System, error) { return matching.NewSystem(g, matching.Spec(palette), nil) }},
		{"matching-baseline", func() (*model.System, error) {
			return matching.NewSystem(g, matching.BaselineSpec(palette), nil)
		}},
		{"bfstree", func() (*model.System, error) { return bfstree.NewSystem(g, bfstree.Spec(), 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.sys()
			if err != nil {
				t.Fatal(err)
			}
			mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
			rn := NewRunner()
			var res RunResult
			seed := uint64(0)
			trial := func() {
				seed++
				opts := RunOptions{
					Scheduler:    rn.Scheduler("random-subset", seed, mk),
					Seed:         seed,
					MaxSteps:     200000,
					SuffixRounds: 2,
					Events:       obs.Scope{Obs: obs.Nop{}, Cell: 0, Key: "zero-alloc", Trial: int(seed)},
				}
				if err := rn.RunRandom(sys, opts, &res); err != nil {
					t.Fatal(err)
				}
				if !res.Silent || !res.LegitimateAtSilence {
					t.Fatalf("trial ended silent=%v legitimate=%v", res.Silent, res.LegitimateAtSilence)
				}
			}
			// Warm up: bind buffers, grow the round-boundary and report slices
			// to their steady-state capacity.
			for i := 0; i < 25; i++ {
				trial()
			}
			if avg := testing.AllocsPerRun(100, trial); avg != 0 {
				t.Fatalf("steady-state trial loop allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// BenchmarkTrialLoop measures one complete pooled trial (reset → run to
// silence → report) on the reusable Runner; BenchmarkTrialLoopOneShot is
// the same workload on the one-shot Run path for comparison.
func BenchmarkTrialLoop(b *testing.B) {
	sys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res RunResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := uint64(i)%64 + 1
		err := rn.RunRandom(sys, RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed, MaxSteps: 200000,
		}, &res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialLoopOneShot(b *testing.B) {
	sys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := uint64(i)%64 + 1
		initial := model.NewRandomConfig(sys, rng.New(seed))
		_, err := Run(sys, initial, RunOptions{
			Scheduler: sched.NewRandomSubset(seed),
			Seed:      seed, MaxSteps: 200000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
