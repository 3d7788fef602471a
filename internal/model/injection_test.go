package model_test

// Mid-run fault injection soundness: external code may corrupt the live
// configuration between steps as long as it calls Simulator.MarkDirty
// for every touched process (the adversary subsystem's contract, see
// internal/fault). These tests drive computations interleaved with
// injections and verify after every step and every injection that the
// incremental enabled/silence caches are indistinguishable from
// from-scratch oracles.

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
	"repro/internal/sched"
)

func injectionTestSystems(t *testing.T) []*model.System {
	t.Helper()
	systems := []*model.System{
		coloringSystem(t, graph.Cycle(9)),
		coloringSystem(t, graph.RandomConnectedGNP(12, 0.25, rng.New(3))),
	}
	g := graph.Grid(3, 3)
	misSys, err := mis.NewSystem(g, mis.Spec(g.MaxDegree()+1), graph.GreedyLocalColoring(g))
	if err != nil {
		t.Fatal(err)
	}
	return append(systems, misSys)
}

// corruptRandom corrupts k random processes of the simulator's live
// configuration in place and marks them dirty — the minimal honest
// injector.
func corruptRandom(sim *model.Simulator, k int, r *rng.Rand) {
	sys, cfg := sim.Sys(), sim.Config()
	for i := 0; i < k; i++ {
		p := r.Intn(sys.N())
		model.RandomizeProcess(sys, cfg, p, r)
		sim.MarkDirty(p)
	}
}

// TestMarkDirtyPreservesCaches is the tracker-vs-oracle equivalence
// across injections: after every step and every mid-run corruption, the
// incremental enabledness tracker must agree with a from-scratch
// EnabledSet rescan and SilentNow must agree with the CommSilent oracle.
func TestMarkDirtyPreservesCaches(t *testing.T) {
	t.Parallel()
	for si, sys := range injectionTestSystems(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(seed)),
				sched.NewRandomSubset(seed), seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			adv := rng.New(rng.Derive(seed, 99))
			var buf []int
			check := func(step int, what string) {
				t.Helper()
				want := model.EnabledSet(sys, sim.Config())
				buf = sim.Tracker().AppendEnabled(buf[:0])
				if !slices.Equal(want, buf) {
					t.Fatalf("system %d seed %d step %d (%s): tracker enabled set %v, oracle %v",
						si, seed, step, what, buf, want)
				}
				gotSilent, err := sim.SilentNow()
				if err != nil {
					t.Fatal(err)
				}
				wantSilent, err := model.CommSilent(sys, sim.Config())
				if err != nil {
					t.Fatal(err)
				}
				if gotSilent != wantSilent {
					t.Fatalf("system %d seed %d step %d (%s): SilentNow=%v, CommSilent oracle=%v",
						si, seed, step, what, gotSilent, wantSilent)
				}
			}
			for step := 0; step < 160; step++ {
				if step%11 == 10 {
					// Mid-run injection between steps, including after the
					// system may already have converged.
					corruptRandom(sim, 1+adv.Intn(3), adv)
					check(step, "post-injection")
				}
				sim.Step()
				check(step, "post-step")
			}
		}
	}
}

// TestMarkDirtyRecoversSilenceDetection: a run driven to silence, then
// corrupted with MarkDirty, must come out of the silent verdict (when
// the corruption broke silence) and reconverge to a state the oracle
// also calls silent — the incremental detector never gets stuck on a
// stale verdict in either direction.
func TestMarkDirtyRecoversSilenceDetection(t *testing.T) {
	t.Parallel()
	sys := coloringSystem(t, graph.Cycle(9))
	seed := uint64(7)
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(seed)),
		sched.NewRandomSubset(seed), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	adv := rng.New(rng.Derive(seed, 1))
	for round := 0; round < 5; round++ {
		silent, err := sim.RunUntilSilent(200000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !silent {
			t.Fatalf("round %d: no silence within budget", round)
		}
		oracle, err := model.CommSilent(sys, sim.Config())
		if err != nil {
			t.Fatal(err)
		}
		if !oracle {
			t.Fatalf("round %d: SilentNow true but oracle disagrees", round)
		}
		corruptRandom(sim, 3, adv)
		got, err := sim.SilentNow()
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.CommSilent(sys, sim.Config())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: post-corruption SilentNow=%v, oracle=%v", round, got, want)
		}
	}
}
