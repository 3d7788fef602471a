package sched

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
)

// propertySystems builds a randomized system zoo: random topologies of
// several families under two protocols, so the daemon properties are
// checked far from the hand-picked graphs of the unit tests.
func propertySystems(t *testing.T) []*model.System {
	t.Helper()
	var systems []*model.System
	mkColoring := func(g *graph.Graph) {
		sys, err := model.NewSystem(g, coloring.Spec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	mkMIS := func(g *graph.Graph) {
		sys, err := mis.NewSystem(g, mis.Spec(g.MaxDegree()+1), graph.GreedyLocalColoring(g))
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	for gseed := uint64(1); gseed <= 3; gseed++ {
		r := rng.New(gseed)
		mkColoring(graph.RandomConnectedGNP(6+r.Intn(12), 0.15+0.3*r.Float64(), r))
		mkMIS(graph.RandomConnectedGNP(6+r.Intn(12), 0.15+0.3*r.Float64(), r))
		mkColoring(graph.RandomGeometric(8+r.Intn(8), 0.5, r))
	}
	return systems
}

// stepAll advances cfg by applying sel with the deterministic per-step
// streams the reset tests use.
func stepAll(sys *model.System, cfg *model.Config, sel []int, step int, seed uint64) {
	ref.Step(sys, cfg, sel, step, func(p int) *rng.Rand {
		return rng.New(rng.Derive(seed, uint64(step*1000+p)))
	}, nil)
}

// TestSelectIsValidSubset is the daemon selection property over random
// systems and seeds: every Select returns a non-empty, duplicate-free
// subset of the process set, and the enabledness-respecting daemon
// (enabled-biased) returns a subset of the enabled set whenever one
// exists. Every daemon is driven over a live computation, so the
// property is checked on evolving — including near-silent —
// configurations.
func TestSelectIsValidSubset(t *testing.T) {
	t.Parallel()
	for si, sys := range propertySystems(t) {
		for _, name := range Names() {
			for seed := uint64(1); seed <= 3; seed++ {
				sc, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := model.NewRandomConfig(sys, rng.New(seed))
				for step := 0; step < 60; step++ {
					sel := sc.Select(step, sys, cfg)
					if len(sel) == 0 {
						t.Fatalf("system %d %s seed %d step %d: empty selection", si, name, seed, step)
					}
					seen := make(map[int]bool, len(sel))
					for _, p := range sel {
						if p < 0 || p >= sys.N() {
							t.Fatalf("system %d %s seed %d step %d: selected %d outside [0,%d)", si, name, seed, step, p, sys.N())
						}
						if seen[p] {
							t.Fatalf("system %d %s seed %d step %d: duplicate selection of %d in %v", si, name, seed, step, p, sel)
						}
						seen[p] = true
					}
					if name == "enabled-biased" {
						if enabled := ref.EnabledSet(sys, cfg); len(enabled) > 0 {
							for _, p := range sel {
								if !slices.Contains(enabled, p) {
									t.Fatalf("system %d %s seed %d step %d: selected disabled %d while %v enabled",
										si, name, seed, step, p, enabled)
								}
							}
						}
					}
					stepAll(sys, cfg, sel, step, seed)
				}
			}
		}
	}
}

// TestFairnessWindowLiveComputation: every daemon selects every process
// at least once within a bounded window on a live computation (the
// sched_test variant checks the same property on a fixpoint) — the
// operational form of the paper's distributed fairness assumption
// (surely for the deterministic daemons, overwhelmingly likely within
// the generous window for the randomized ones at these sizes and seeds).
func TestFairnessWindowLiveComputation(t *testing.T) {
	t.Parallel()
	sys := propertySystems(t)[0]
	n := sys.N()
	window := 64 * n
	for _, name := range Names() {
		for seed := uint64(1); seed <= 2; seed++ {
			sc, err := ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := model.NewRandomConfig(sys, rng.New(seed))
			selectedAt := make([]int, n)
			for i := range selectedAt {
				selectedAt[i] = -1
			}
			for step := 0; step < window; step++ {
				sel := sc.Select(step, sys, cfg)
				for _, p := range sel {
					selectedAt[p] = step
				}
				stepAll(sys, cfg, sel, step, seed)
			}
			for p, at := range selectedAt {
				if at < 0 {
					t.Fatalf("%s seed %d: process %d never selected in %d steps", name, seed, p, window)
				}
			}
		}
	}
}
