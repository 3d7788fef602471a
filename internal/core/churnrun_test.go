package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/protocols/coloring"
	"repro/internal/sched"
)

// TestRunChurnedEpisodes: a churn-only plan fires exactly the planned
// number of topology events, opens one pure-topology episode per firing
// (no state injections), recovers each, and — the plan's firing count
// being even for an alternating shape — ends in a configuration that is
// silent on the restored base topology by the from-scratch oracle.
func TestRunChurnedEpisodes(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	const firings = 4
	for _, ts := range systems {
		for _, name := range []string{"cut", "crashjoin"} {
			for seed := uint64(1); seed <= 3; seed++ {
				err := rn.RunRandomFaulted(ts.sys, RunOptions{
					Scheduler: rn.Scheduler("random-subset", seed, mk),
					Seed:      seed,
					MaxSteps:  400000,
				}, fault.Plan{
					Churn:         rn.ChurnAdversary("churn:"+name+"/2", func() fault.ChurnAdversary { a, _ := fault.ChurnByName(name, 2); return a }),
					ChurnSchedule: fault.OnSilence(firings),
				}, &res)
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", ts.name, name, seed, err)
				}
				if res.ChurnEvents != firings || len(res.Episodes) != firings {
					t.Fatalf("%s %s seed %d: %d churn events / %d episodes, want %d",
						ts.name, name, seed, res.ChurnEvents, len(res.Episodes), firings)
				}
				if res.Injections != 0 {
					t.Fatalf("%s %s seed %d: %d injections in a churn-only plan", ts.name, name, seed, res.Injections)
				}
				if !res.AllRecovered() || !res.Silent {
					t.Fatalf("%s %s seed %d: not all episodes recovered: %+v", ts.name, name, seed, res.Episodes)
				}
				for i, ep := range res.Episodes {
					if ep.Faulted != 0 || ep.Churned == 0 {
						t.Fatalf("%s %s seed %d: episode %d = %+v, want Faulted=0 Churned>0", ts.name, name, seed, i, ep)
					}
					if ep.BallRadius != -1 {
						t.Fatalf("%s %s seed %d: episode %d reports ball radius %d without an adversary", ts.name, name, seed, i, ep.BallRadius)
					}
				}
				// Even alternating firing count: topology is back to base,
				// so the base-system oracle applies to the final config.
				oracle, err := model.CommSilent(ts.sys, res.Final)
				if err != nil {
					t.Fatal(err)
				}
				if !oracle {
					t.Fatalf("%s %s seed %d: final configuration not silent by the oracle", ts.name, name, seed)
				}
			}
		}
	}
}

// TestRunChurnedWithAdversary: churn and state faults on the same
// silence schedule fire together — one combined episode per silence
// point carrying both the corrupted and the topology-affected counts.
func TestRunChurnedWithAdversary(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	rn := NewRunner()
	var res FaultResult
	for _, ts := range systems {
		for seed := uint64(1); seed <= 3; seed++ {
			err := rn.RunRandomFaulted(ts.sys, RunOptions{
				Scheduler: rn.Scheduler("random-subset", seed, mk),
				Seed:      seed,
				MaxSteps:  400000,
			}, fault.Plan{
				Adversary:     rn.Adversary("uniform/2", func() fault.Adversary { return fault.NewUniform(2) }),
				Schedule:      fault.OnSilence(2),
				Churn:         rn.ChurnAdversary("churn:rewire/2", func() fault.ChurnAdversary { return fault.NewRewire(2) }),
				ChurnSchedule: fault.OnSilence(2),
			}, &res)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ts.name, seed, err)
			}
			if res.Injections != 2 || res.ChurnEvents != 2 || len(res.Episodes) != 2 {
				t.Fatalf("%s seed %d: injections=%d churn=%d episodes=%d, want 2/2/2",
					ts.name, seed, res.Injections, res.ChurnEvents, len(res.Episodes))
			}
			if !res.Silent || !res.AllRecovered() {
				t.Fatalf("%s seed %d: combined episodes did not all recover", ts.name, seed)
			}
			for i, ep := range res.Episodes {
				if ep.Faulted != 2 || ep.Churned == 0 {
					t.Fatalf("%s seed %d: episode %d = %+v, want Faulted=2 Churned>0", ts.name, seed, i, ep)
				}
			}
		}
	}
}

// TestRunChurnedDeterministic: two independent runners produce
// deeply-equal results for the same churn plan and seed, and a runner
// rebound across systems reproduces its own earlier results (the
// dynamic-copy and churn-adversary caches rebuild cleanly).
func TestRunChurnedDeterministic(t *testing.T) {
	t.Parallel()
	systems := runnerTestSystems(t)
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	run := func(rn *Runner, sys *model.System, seed uint64, res *FaultResult) {
		t.Helper()
		err := rn.RunRandomFaulted(sys, RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed,
			MaxSteps:  400000,
		}, fault.Plan{
			Adversary:     rn.Adversary("uniform/2", func() fault.Adversary { return fault.NewUniform(2) }),
			Schedule:      fault.Every(30, 2),
			Churn:         rn.ChurnAdversary("churn:crashjoin/2", func() fault.ChurnAdversary { return fault.NewCrashJoin(2) }),
			ChurnSchedule: fault.OnSilence(2),
		}, res)
		if err != nil {
			t.Fatal(err)
		}
	}
	shared := NewRunner()
	var first []FaultResult
	for _, ts := range systems {
		var a, b FaultResult
		run(NewRunner(), ts.sys, 7, &a) // fresh runner per system
		run(shared, ts.sys, 7, &b)      // one runner rebound across systems
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: fresh and shared runner diverge:\nfresh  %+v\nshared %+v", ts.name, a, b)
		}
		first = append(first, a)
	}
	// Second sweep with the shared runner: rebinding back to each system
	// must reproduce the first sweep exactly.
	for i, ts := range systems {
		var again FaultResult
		run(shared, ts.sys, 7, &again)
		if !reflect.DeepEqual(first[i], again) {
			t.Fatalf("%s: rebound runner diverges from its first run", ts.name)
		}
	}
}

// TestChurnTrialLoopZeroAlloc is the churn-path counterpart of
// TestFaultedTrialLoopZeroAlloc: a complete steady-state trial with
// both topology churn (crash/join on silence) and state injections —
// dynamic-topology reset, churn firings through ApplyTopology, episode
// bookkeeping, recovery to silence, report — allocates nothing.
func TestChurnTrialLoopZeroAlloc(t *testing.T) {
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
			Adversary:     rn.Adversary("uniform/2", func() fault.Adversary { return fault.NewUniform(2) }),
			Schedule:      fault.OnSilence(2),
			Churn:         rn.ChurnAdversary("churn:crashjoin/2", func() fault.ChurnAdversary { return fault.NewCrashJoin(2) }),
			ChurnSchedule: fault.OnSilence(2),
		}
		if err := rn.RunRandomFaulted(sys, opts, plan, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Silent || res.ChurnEvents != 2 || res.Injections != 2 {
			t.Fatal("trial did not run both combined episodes to silence")
		}
	}
	for i := 0; i < 25; i++ {
		trial()
	}
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Fatalf("steady-state churn trial loop allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkChurnTrialLoop measures one complete churned trial (dynamic
// reset → converge → crash 2 at silence → recover → rejoin → recover →
// report) on the reusable Runner.
func BenchmarkChurnTrialLoop(b *testing.B) {
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
			Churn:         rn.ChurnAdversary("churn:crashjoin/2", func() fault.ChurnAdversary { return fault.NewCrashJoin(2) }),
			ChurnSchedule: fault.OnSilence(2),
		}, &res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestChurnJoinGrowsReadTables: the engine's read aggregator is keyed by
// port and sized by the highest port it has seen, so a join that lifts a
// degree must grow it mid-run. On a star whose every process is crashed
// for the whole of a first trial, the runner's arena has seen no port at
// all; a second trial on the same arena rejoins everyone at the first
// silence point and the hub starts reading behind ports 1..8. Its result
// must equal a fresh runner's.
func TestChurnJoinGrowsReadTables(t *testing.T) {
	t.Parallel()
	g := graph.Star(9)
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	run := func(rn *Runner, firings int, res *FaultResult) {
		t.Helper()
		const seed = 11
		err := rn.RunRandomFaulted(sys, RunOptions{
			Scheduler: rn.Scheduler("random-subset", seed, mk),
			Seed:      seed,
			MaxSteps:  400000,
			// The hub checks one neighbor per activation, round-robin:
			// the suffix is where it gets past port 1.
			SuffixRounds: 2 * g.N(),
		}, fault.Plan{
			Churn:         rn.ChurnAdversary("churn:crashjoin/9", func() fault.ChurnAdversary { return fault.NewCrashJoin(g.N()) }),
			ChurnSchedule: fault.Schedule{Kind: fault.KindAtStart, Count: firings},
		}, res)
		if err != nil {
			t.Fatal(err)
		}
	}
	reused := NewRunner()
	var down, grown, fresh FaultResult
	run(reused, 1, &down) // crash everyone at start, never rejoin
	if down.Report.TotalReads != 0 {
		t.Fatalf("all-crashed trial performed %d reads, want none", down.Report.TotalReads)
	}
	run(reused, 2, &grown) // crash at start, rejoin at the first silence
	// The hub is the one process with more than one neighbor, so the
	// largest suffix read set is its.
	if hist := grown.Report.SuffixReadSetHist; len(hist)-1 != g.N()-1 || hist[g.N()-1] != 1 {
		t.Fatalf("rejoined hub's read-set histogram %v: want one set of %d distinct neighbors; the high ports were never exercised", hist, g.N()-1)
	}
	run(NewRunner(), 2, &fresh)
	if !reflect.DeepEqual(grown, fresh) {
		t.Fatalf("reused arena diverges from a fresh one:\nreused %+v\nfresh  %+v", grown, fresh)
	}
}
