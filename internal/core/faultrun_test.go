package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/protocols/coloring"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestRunFaultedAtStartMatchesRun: an at-start plan is byte-equivalent
// to corrupting the initial buffer by hand and calling Run — same draw
// stream, same execution, same report. This is the equivalence that
// keeps the rewired E15 table unchanged.
func TestRunFaultedAtStartMatchesRun(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rnWant, rnGot := NewRunner(), NewRunner()
	var got FaultResult
	for _, ts := range systems {
		snapshot := model.NewRandomConfig(ts.sys, rng.New(77))
		for _, k := range []int{1, ts.sys.N() / 2} {
			for seed := uint64(1); seed <= 3; seed++ {
				opts := RunOptions{
					Seed:     seed,
					MaxSteps: 200000,
				}

				// Manual path: legacy clone-then-corrupt, plain Run.
				corrupted := rnWant.InitialConfig(ts.sys)
				corrupted.CopyFrom(snapshot)
				manual := fault.NewUniform(k)
				manual.Reset(seed)
				manual.Inject(ts.sys, corrupted, nil)
				opts.Scheduler = rnWant.Scheduler("random-subset", seed, mk)
				var want RunResult
				if err := rnWant.Run(ts.sys, opts, &want); err != nil {
					t.Fatalf("%s k=%d seed %d: manual: %v", ts.name, k, seed, err)
				}

				// Fault path: the same corruption as an at-start plan.
				rnGot.InitialConfig(ts.sys).CopyFrom(snapshot)
				opts.Scheduler = rnGot.Scheduler("random-subset", seed, mk)
				err := rnGot.RunFaulted(ts.sys, opts, fault.Plan{
					Adversary: rnGot.Adversary(fmt.Sprintf("uniform/%d", k), func() fault.Adversary { return fault.NewUniform(k) }),
					Schedule:  fault.AtStart(),
				}, &got)
				if err != nil {
					t.Fatalf("%s k=%d seed %d: faulted: %v", ts.name, k, seed, err)
				}
				if !reflect.DeepEqual(want, got.RunResult) {
					t.Fatalf("%s k=%d seed %d: RunFaulted(at-start) differs from manual corrupt+Run:\nwant %+v\ngot  %+v",
						ts.name, k, seed, want, got.RunResult)
				}
				if got.Injections != 1 || len(got.Episodes) != 1 {
					t.Fatalf("%s k=%d seed %d: %d injections / %d episodes, want 1/1",
						ts.name, k, seed, got.Injections, len(got.Episodes))
				}
				ep := got.Episodes[0]
				if ep.Step != 0 || ep.Faulted != k {
					t.Fatalf("%s k=%d seed %d: episode %+v, want Step=0 Faulted=%d", ts.name, k, seed, ep, k)
				}
				if ep.Recovered != want.Silent || (ep.Recovered && ep.RecoveryRounds != want.RoundsToSilence) {
					t.Fatalf("%s k=%d seed %d: episode %+v inconsistent with run (silent=%v rounds=%d)",
						ts.name, k, seed, ep, want.Silent, want.RoundsToSilence)
				}
			}
		}
	}
}

// TestRunFaultedOnSilenceEpisodes: an on-silence plan performs exactly
// the planned number of injections, each episode recovers in order, and
// the final configuration is silent by the from-scratch oracle.
func TestRunFaultedOnSilenceEpisodes(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	const episodes = 3
	for _, ts := range systems {
		diam, err := ts.sys.Graph().Diameter()
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			err := rn.RunRandomFaulted(ts.sys, RunOptions{
				Scheduler: rn.Scheduler("random-subset", seed, mk),
				Seed:      seed,
				MaxSteps:  400000,
			}, fault.Plan{
				Adversary: rn.Adversary("cluster-test", func() fault.Adversary { return fault.NewCluster(3) }),
				Schedule:  fault.OnSilence(episodes),
			}, &res)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ts.name, seed, err)
			}
			if res.Injections != episodes || len(res.Episodes) != episodes {
				t.Fatalf("%s seed %d: %d injections / %d episodes, want %d",
					ts.name, seed, res.Injections, len(res.Episodes), episodes)
			}
			if !res.AllRecovered() || !res.Silent {
				t.Fatalf("%s seed %d: not all episodes recovered: %+v", ts.name, seed, res.Episodes)
			}
			oracle, err := model.CommSilent(ts.sys, res.Final)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle {
				t.Fatalf("%s seed %d: final configuration not silent by the oracle", ts.name, seed)
			}
			lastStep := -1
			for i, ep := range res.Episodes {
				if ep.Step < lastStep {
					t.Fatalf("%s seed %d: episode %d at step %d before previous %d", ts.name, seed, i, ep.Step, lastStep)
				}
				lastStep = ep.Step
				if ep.Radius < 0 || ep.Radius > diam {
					t.Fatalf("%s seed %d: episode %d radius %d outside [0,%d]", ts.name, seed, i, ep.Radius, diam)
				}
				if ep.BallRadius < 0 || ep.BallRadius > diam {
					t.Fatalf("%s seed %d: episode %d ball radius %d outside [0,%d]", ts.name, seed, i, ep.BallRadius, diam)
				}
				if ep.Faulted != 3 {
					t.Fatalf("%s seed %d: episode %d faulted %d, want 3", ts.name, seed, i, ep.Faulted)
				}
			}
		}
	}
}

// TestRunFaultedMidRunOracle: a periodic mid-run schedule must end in a
// configuration the from-scratch silence oracle confirms, and report as
// many injections as the step budget allowed.
func TestRunFaultedMidRunOracle(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	for seed := uint64(1); seed <= 5; seed++ {
		err := rn.RunRandomFaulted(sys, RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed,
			MaxSteps:  400000,
		}, fault.Plan{
			Adversary: rn.Adversary("comm-test", func() fault.Adversary { return fault.NewCommOnly(2) }),
			Schedule:  fault.Every(25, 3),
		}, &res)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Silent {
			t.Fatalf("seed %d: no final silence", seed)
		}
		if res.Injections != 3 {
			t.Fatalf("seed %d: %d injections, want 3", seed, res.Injections)
		}
		oracle, err := model.CommSilent(sys, res.Final)
		if err != nil {
			t.Fatal(err)
		}
		if !oracle {
			t.Fatalf("seed %d: final configuration not silent by the oracle", seed)
		}
	}
}

// TestRunCutBeforeItsInjectionRecoversNothing: a run whose step budget
// ends before its scheduled injection, short of silence, has no episode,
// and AllRecovered, which needs at least one disturbance, reports false.
func TestRunCutBeforeItsInjectionRecoversNothing(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	err = rn.RunRandomFaulted(sys, RunOptions{
		Scheduler: rn.Scheduler("random-subset", 1, mk),
		Seed:      1,
		MaxSteps:  1,
	}, fault.Plan{
		Adversary: rn.Adversary("comm-test", func() fault.Adversary { return fault.NewCommOnly(2) }),
		Schedule:  fault.AtStep(1000),
	}, &res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent || res.Injections != 0 || len(res.Episodes) != 0 {
		t.Fatalf("a run of 1 step: silent %v, %d injections, %d episodes; want none", res.Silent, res.Injections, len(res.Episodes))
	}
	if res.AllRecovered() {
		t.Fatal("a run without a disturbance reports every disturbance recovered")
	}
}

// TestFaultedTrialLoopZeroAlloc is the injected-path counterpart of
// TestTrialLoopZeroAlloc: a complete steady-state injected trial —
// scheduler and adversary reset, random initial configuration,
// recorder+simulator reset, repeated injection and recovery to silence,
// ReportInto, final-configuration hand-over — allocates nothing beyond
// the amortized round-boundary append. The trial carries a no-op event
// scope (which the injection/recovery/silence emissions all route
// through), so the observation plumbing is part of the 0 allocs/op
// contract.
func TestFaultedTrialLoopZeroAlloc(t *testing.T) {
	sys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	seed := uint64(0)
	trial := func() {
		seed++
		opts := RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed,
			MaxSteps:  400000,
			Events:    obs.Scope{Obs: obs.Nop{}, Cell: 0, Key: "zero-alloc", Trial: int(seed)},
		}
		plan := fault.Plan{
			Adversary: rn.Adversary("uniform/3", func() fault.Adversary { return fault.NewUniform(3) }),
			Schedule:  fault.OnSilence(2),
		}
		if err := rn.RunRandomFaulted(sys, opts, plan, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Silent || res.Injections != 2 {
			t.Fatal("trial did not run both episodes to silence")
		}
	}
	for i := 0; i < 25; i++ {
		trial()
	}
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Fatalf("steady-state injected trial loop allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkFaultedTrialLoop measures one complete injected trial (reset
// → converge → inject at silence → recover → report) on the reusable
// Runner.
func BenchmarkFaultedTrialLoop(b *testing.B) {
	sys, err := model.NewSystem(graph.Cycle(9), coloring.Spec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := uint64(i)%64 + 1
		err := rn.RunRandomFaulted(sys, RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed, MaxSteps: 400000,
		}, fault.Plan{
			Adversary: rn.Adversary("uniform/3", func() fault.Adversary { return fault.NewUniform(3) }),
			Schedule:  fault.OnSilence(2),
		}, &res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestFaultObserverEpisodeBetweenSilentStretches: the simulator hands
// the observer a silent stretch's replays as counted batches when the
// stepping method returns, so an episode opened after one stretch and
// closed before the next must see none of either stretch's moves. Each
// system is driven twice — stretches through RunRounds (one batch per
// visited state) and through bare Steps (delivery every step) — around
// one injection with the observer active during the recovery only, and
// both drives must report the same radius, recorder report and final
// configuration. COLORING and MIS keep every process moving in silence,
// so one replay delivered inside the episode would push the radius to
// the faulted process's eccentricity.
func TestFaultObserverEpisodeBetweenSilentStretches(t *testing.T) {
	t.Parallel()
	const stretch = 4
	for _, ts := range runnerTestSystems(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			drive := func(batched bool) (int, trace.Report, *model.Config) {
				t.Helper()
				var contain fault.Containment
				fo := &faultObserver{rec: trace.NewRecorder(ts.sys.N()), contain: &contain}
				sim, err := model.NewSimulator(ts.sys, model.NewRandomConfig(ts.sys, rng.New(seed)),
					sched.NewRandomSubset(seed), seed, fo)
				if err != nil {
					t.Fatal(err)
				}
				toSilence := func() {
					t.Helper()
					if silent, err := sim.RunUntilSilent(400000, 1); err != nil || !silent {
						t.Fatalf("%s seed %d: RunUntilSilent = (%v, %v)", ts.name, seed, silent, err)
					}
				}
				silentStretch := func() {
					if batched {
						sim.RunRounds(stretch)
						return
					}
					for target := sim.Rounds() + stretch; sim.Rounds() < target; {
						sim.Step()
					}
				}
				toSilence()
				fo.rec.MarkSuffix()
				silentStretch()
				// The episode, in RunFaulted's order: inject and mark dirty,
				// then open.
				adv := fault.NewUniform(1)
				adv.Reset(seed)
				faulted := adv.Inject(ts.sys, sim.Config(), nil)
				for _, p := range faulted {
					sim.MarkDirty(p)
				}
				contain.Begin(ts.sys.Graph(), faulted)
				fo.active = true
				toSilence()
				radius := contain.Radius()
				fo.active = false
				silentStretch()
				return radius, fo.rec.Report(), sim.Config().Clone()
			}
			wantRadius, wantReport, wantFinal := drive(false)
			radius, report, final := drive(true)
			if radius != wantRadius {
				t.Errorf("%s seed %d: radius %d with batched stretches, %d stepping", ts.name, seed, radius, wantRadius)
			}
			if !reflect.DeepEqual(report, wantReport) {
				t.Errorf("%s seed %d: recorder reports differ:\n batched  %+v\n stepping %+v", ts.name, seed, report, wantReport)
			}
			if !final.Equal(wantFinal) {
				t.Errorf("%s seed %d: final configurations differ", ts.name, seed)
			}
			if report.SuffixSelections == 0 {
				t.Errorf("%s seed %d: no selection recorded in the suffix; the stretches exercised no replay", ts.name, seed)
			}
		}
	}
}
