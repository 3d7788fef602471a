package model_test

// Mid-run fault injection soundness: external code may corrupt the live
// configuration between steps as long as it calls Simulator.MarkDirty
// for every touched process (the adversary subsystem's contract, see
// internal/fault). These tests drive computations interleaved with
// injections and verify after every step and every injection that the
// incremental enabled/silence caches are indistinguishable from
// from-scratch oracles.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
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
	misSys, err := engine.Build(g, engine.FamMIS, nil)
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
		if !ref.Silent(sys, sim.Config()) {
			t.Fatalf("round %d: SilentNow true but oracle disagrees", round)
		}
		corruptRandom(sim, 3, adv)
		got, err := sim.SilentNow()
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Silent(sys, sim.Config()); got != want {
			t.Fatalf("round %d: post-corruption SilentNow=%v, oracle=%v", round, got, want)
		}
	}
}
