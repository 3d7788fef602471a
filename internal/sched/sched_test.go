package sched

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
)

func testSystem(t *testing.T) *model.System {
	t.Helper()
	return testSystemOn(t, graph.Cycle(6))
}

// testSystemOn is testSystem's protocol on g.
func testSystemOn(t *testing.T, g *graph.Graph) *model.System {
	t.Helper()
	spec := &model.Spec{
		Name: "T",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:  "bump",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
	sys, err := model.NewSystem(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func validSelection(t *testing.T, name string, sel []int, n int) {
	t.Helper()
	if len(sel) == 0 {
		t.Fatalf("%s: empty selection", name)
	}
	seen := map[int]bool{}
	for _, p := range sel {
		if p < 0 || p >= n {
			t.Fatalf("%s: selected %d out of range", name, p)
		}
		if seen[p] {
			t.Fatalf("%s: duplicate selection of %d", name, p)
		}
		seen[p] = true
	}
}

func TestAllSchedulersProduceValidSelections(t *testing.T) {
	sys := testSystem(t)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, 1)
	for _, name := range Names() {
		sc, err := ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name() == "" {
			t.Fatalf("%s: empty Name()", name)
		}
		for step := 0; step < 200; step++ {
			sel := sc.Select(step, sys, cfg)
			validSelection(t, name, sel, sys.N())
		}
	}
}

func TestFairnessWindow(t *testing.T) {
	// Every scheduler must select every process within a reasonable
	// window (fairness; random ones with probability ~1 over 4000 steps).
	// The configuration is a fixpoint (everyone disabled) so that
	// enabled-biased exercises its fallback: along real computations its
	// fairness comes from the enabled set shrinking to empty.
	sys := testSystem(t)
	cfg := model.NewZeroConfig(sys)
	for _, name := range Names() {
		sc, err := ByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, sys.N())
		count := 0
		for step := 0; step < 4000 && count < sys.N(); step++ {
			for _, p := range sc.Select(step, sys, cfg) {
				if !seen[p] {
					seen[p] = true
					count++
				}
			}
		}
		if count != sys.N() {
			t.Fatalf("%s: only %d/%d processes ever selected", name, count, sys.N())
		}
	}
}

func TestSynchronousSelectsAll(t *testing.T) {
	sys := testSystem(t)
	sel := NewSynchronous().Select(0, sys, model.NewZeroConfig(sys))
	if len(sel) != sys.N() {
		t.Fatalf("synchronous selected %d processes", len(sel))
	}
}

// TestSelectMaskMatchesSelect: a mask scheduler's SelectMask returns
// the selection Select returns at the same point of the same stream. Two
// instances per daemon and seed run in lockstep, one asked through
// Select and one through SelectMask, on systems of one word, exactly one
// word, one word and a bit, and three words, so every mask has its tail
// bits clear.
func TestSelectMaskMatchesSelect(t *testing.T) {
	for _, n := range []int{6, 64, 65, 130} {
		sys := testSystemOn(t, graph.Cycle(n))
		cfg := model.NewZeroConfig(sys)
		for _, name := range []string{"random-subset", "synchronous"} {
			for seed := uint64(1); seed <= 5; seed++ {
				list, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := ByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				masked, ok := sc.(model.MaskScheduler)
				if !ok {
					t.Fatalf("%s is not a model.MaskScheduler", name)
				}
				for step := range 100 {
					want := list.Select(step, sys, cfg)
					mask := masked.SelectMask(step, sys, cfg)
					if len(mask) != (n+63)/64 {
						t.Fatalf("%s, n=%d, seed %d, step %d: a mask of %d words", name, n, seed, step, len(mask))
					}
					var got []int
					for p := range 64 * len(mask) {
						if mask[p/64]&(1<<(p%64)) != 0 {
							got = append(got, p)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s, n=%d, seed %d, step %d: SelectMask holds %v, Select returned %v", name, n, seed, step, got, want)
					}
				}
			}
		}
	}
}

func TestCentralRoundRobinCycle(t *testing.T) {
	sys := testSystem(t)
	cfg := model.NewZeroConfig(sys)
	for step := 0; step < 12; step++ {
		sel := NewCentralRoundRobin().Select(step, sys, cfg)
		if len(sel) != 1 || sel[0] != step%6 {
			t.Fatalf("step %d: selected %v", step, sel)
		}
	}
}

func TestEnabledBiasedSelectsEnabled(t *testing.T) {
	sys := testSystem(t)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, 1) // neighbors of 0 and process 0 become enabled
	enabled := map[int]bool{}
	for _, p := range ref.EnabledSet(sys, cfg) {
		enabled[p] = true
	}
	if len(enabled) == 0 {
		t.Fatal("test setup: no process enabled")
	}
	sc := NewEnabledBiased(3)
	for step := 0; step < 100; step++ {
		for _, p := range sc.Select(step, sys, cfg) {
			if !enabled[p] {
				t.Fatalf("enabled-biased selected disabled process %d", p)
			}
		}
	}
}

func TestEnabledBiasedFallsBackWhenAllDisabled(t *testing.T) {
	sys := testSystem(t)
	cfg := model.NewZeroConfig(sys) // everyone disabled
	sc := NewEnabledBiased(3)
	sel := sc.Select(0, sys, cfg)
	validSelection(t, "enabled-biased", sel, sys.N())
}

func TestLaziestFairWindow(t *testing.T) {
	// The adversarial daemon must still be fair: every process selected
	// at least once every n steps.
	sys := testSystem(t)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, 1)
	sc := NewLaziestFair()
	last := make([]int, sys.N())
	for i := range last {
		last[i] = -1
	}
	for step := 0; step < 600; step++ {
		sel := sc.Select(step, sys, cfg)
		if len(sel) != 1 {
			t.Fatalf("laziest-fair selected %d processes", len(sel))
		}
		p := sel[0]
		if last[p] >= 0 && step-last[p] > 2*sys.N() {
			t.Fatalf("process %d starved for %d steps", p, step-last[p])
		}
		last[p] = step
	}
}

func TestLaziestFairTieBreaks(t *testing.T) {
	// On the first step every process is tied at last = -1: the daemon
	// must prefer a disabled process, then lower degree, then lower id.
	// On a star with the hub's value changed, the leaves are enabled
	// (they see the hub) and the hub is enabled too — so with everyone
	// enabled the pick falls to the lowest-degree, lowest-id process;
	// with everyone disabled (zero config) it picks the lowest-degree,
	// lowest-id among the disabled.
	star := graph.Star(5) // process 0 is the hub (degree 4)
	spec := &model.Spec{
		Name: "T",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:  "copy",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
	sys, err := model.NewSystem(star, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// All disabled: ties broken by degree then id — a leaf, process 1.
	sel := NewLaziestFair().Select(0, sys, model.NewZeroConfig(sys))
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("all-disabled tie-break selected %v, want [1]", sel)
	}

	// Hub differs: every leaf (and the hub) is enabled except none —
	// prefer a *disabled* process if one exists. Setting one leaf equal
	// to the hub disables it; it must win the tie.
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, 2) // hub: leaves now see a conflict and are enabled
	cfg.SetComm(3, 0, 2) // leaf 3 matches the hub: disabled
	// hub is enabled too (it reads leaf via port 1).
	sel = NewLaziestFair().Select(0, sys, cfg)
	if len(sel) != 1 || sel[0] != 3 {
		t.Fatalf("disabled-first tie-break selected %v, want [3]", sel)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestByNameAliases(t *testing.T) {
	for _, alias := range []string{"sync", "distributed", "adversarial"} {
		if _, err := ByName(alias, 1); err != nil {
			t.Fatalf("alias %q rejected: %v", alias, err)
		}
	}
}
