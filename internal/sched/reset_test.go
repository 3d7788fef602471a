package sched

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/protocols/coloring"
	"repro/internal/rng"
)

// TestResetMatchesFresh: for every scheduler, an instance Reset to a new
// seed must produce exactly the selection stream of a freshly
// constructed instance with that seed — the contract that lets the trial
// pool reuse one scheduler per worker.
func TestResetMatchesFresh(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(7)
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reused, err := ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			rs, ok := reused.(Resettable)
			if !ok {
				t.Fatalf("%s does not implement Resettable", name)
			}
			// Dirty the reused instance with a different-seed run first.
			cfgA := model.NewRandomConfig(sys, rng.New(1))
			for step := 0; step < 25; step++ {
				reused.Select(step, sys, cfgA)
			}
			for seed := uint64(2); seed <= 4; seed++ {
				fresh, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				rs.Reset(seed)
				// Drive both over the same evolving configuration: apply
				// the selections of the fresh instance to keep the
				// enabledness-dependent daemons honest.
				cfg := model.NewRandomConfig(sys, rng.New(seed))
				for step := 0; step < 40; step++ {
					want := fresh.Select(step, sys, cfg)
					got := reused.Select(step, sys, cfg)
					if !slices.Equal(want, got) {
						t.Fatalf("seed %d step %d: reset selects %v, fresh selects %v",
							seed, step, got, want)
					}
					ref.Step(sys, cfg, want, step, func(p int) *rng.Rand {
						return rng.New(rng.Derive(seed, uint64(step*1000+p)))
					}, nil)
				}
			}
		})
	}
}

// TestResetReplaysSelectionSequence: over random systems and seeds, a
// scheduler driven through a computation and then Reset to the same seed
// must reproduce its exact selection sequence when the computation is
// replayed — selection is a pure function of (seed, step, configuration
// history), with no hidden state surviving Reset.
func TestResetReplaysSelectionSequence(t *testing.T) {
	t.Parallel()
	for si, sys := range propertySystems(t) {
		for _, name := range Names() {
			for seed := uint64(1); seed <= 3; seed++ {
				sc, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				const steps = 50
				record := make([][]int, steps)
				cfg := model.NewRandomConfig(sys, rng.New(seed))
				for step := 0; step < steps; step++ {
					sel := sc.Select(step, sys, cfg)
					record[step] = append([]int(nil), sel...)
					stepAll(sys, cfg, sel, step, seed)
				}
				sc.(Resettable).Reset(seed)
				cfg = model.NewRandomConfig(sys, rng.New(seed))
				for step := 0; step < steps; step++ {
					sel := sc.Select(step, sys, cfg)
					if !slices.Equal(sel, record[step]) {
						t.Fatalf("system %d %s seed %d step %d: replay selects %v, recorded %v",
							si, name, seed, step, sel, record[step])
					}
					stepAll(sys, cfg, sel, step, seed)
				}
			}
		}
	}
}
