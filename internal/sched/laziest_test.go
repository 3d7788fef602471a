package sched

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/protocols/coloring"
	"repro/internal/rng"
)

// legacyLaziestFair is a test-local copy of the historical LaziestFair
// selection: a two-pass O(n) scan over a last-selected vector. The live
// implementation replaced it with a warmup bucket plus FIFO ring; this
// reference pins the selection semantics the rewrite must preserve.
type legacyLaziestFair struct {
	last []int
}

func (s *legacyLaziestFair) pick(step int, sys *model.System, enabled func(p int) bool) int {
	n := sys.N()
	for len(s.last) < n {
		s.last = append(s.last, -1)
	}
	minLast := s.last[0]
	for p := 1; p < n; p++ {
		if s.last[p] < minLast {
			minLast = s.last[p]
		}
	}
	chosen, chosenDisabled, chosenDeg := -1, false, 0
	for p := 0; p < n; p++ {
		if s.last[p] != minLast {
			continue
		}
		disabled := !enabled(p)
		deg := sys.Graph().Degree(p)
		if chosen < 0 ||
			(disabled != chosenDisabled && disabled) ||
			(disabled == chosenDisabled && deg < chosenDeg) {
			chosen, chosenDisabled, chosenDeg = p, disabled, deg
		}
	}
	s.last[chosen] = step
	return chosen
}

// TestLaziestFairMatchesReferenceScan drives the ring-based daemon and
// the historical two-pass scan over the same live computations (several
// random systems, several seeds, well past the n-step warmup where the
// tie-break engages) and requires identical selection sequences.
func TestLaziestFairMatchesReferenceScan(t *testing.T) {
	t.Parallel()
	for si, sys := range propertySystems(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			sc := NewLaziestFair()
			legacy := &legacyLaziestFair{}
			cfg := model.NewRandomConfig(sys, rng.New(seed))
			steps := 4*sys.N() + 40
			for step := 0; step < steps; step++ {
				sel := sc.Select(step, sys, cfg)
				en := ref.EnabledSet(sys, cfg)
				want := legacy.pick(step, sys, func(p int) bool { return slices.Contains(en, p) })
				if len(sel) != 1 || sel[0] != want {
					t.Fatalf("system %d seed %d step %d: ring picks %v, reference picks %d",
						si, seed, step, sel, want)
				}
				stepAll(sys, cfg, sel, step, seed)
			}
		}
	}

	// Synthetic enabledness streams, where the warm-up's shape is chosen
	// rather than met: each runs the probe-only path (a whole-set probe
	// that never answers yes) and the path with a whole-set probe that
	// does (which spares a pick its search when no never-selected id is
	// disabled) against the reference, on an irregular static graph and
	// on a MutableCopy whose degrees move between picks.
	g := graph.RandomConnectedGNP(40, 0.12, rng.New(5))
	static, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := static.N()
	streams := []struct {
		name    string
		enabled func(p, step int) bool
	}{
		{"all-enabled", func(int, int) bool { return true }},
		{"half-disabled", func(p, _ int) bool { return p%2 == 0 }},
		{"flipping", func(p, step int) bool {
			// Every process enabled, then a third disabled, then the
			// disabled third moves with each step, then none enabled.
			switch {
			case step < n/4:
				return true
			case step < n/2:
				return p%3 != 0
			case step < 3*n/4:
				return (p+step)%3 != 0
			}
			return false
		}},
	}
	// churn mutates a dynamic graph between warm-up picks: crash, join,
	// and a rewire (one edge out, another back) that changes degrees.
	churn := func(dg *graph.Graph, step int) {
		switch step {
		case 3:
			dg.CrashNode(7)
		case 9:
			u := 20
			dg.RemoveEdge(u, dg.Neighbor(u, 1))
		case 15:
			dg.ReviveNode(7)
		case 21:
			dg.CrashNode(31)
			dg.RemoveEdge(2, dg.Neighbor(2, 1))
		case 27:
			dg.ReviveNode(31)
		}
	}
	for _, st := range streams {
		for _, dynamic := range []bool{false, true} {
			for _, tracked := range []bool{false, true} {
				sys := static
				if dynamic {
					sys = static.MutableCopy()
				}
				sc, legacy := NewLaziestFair(), &legacyLaziestFair{}
				for step := 0; step < 2*n+5; step++ {
					if dynamic {
						churn(sys.Graph(), step)
					}
					enabled := func(p int) bool { return st.enabled(p, step) }
					allEnabled := func(set *bitset.Set) bool {
						for p := 0; p < n; p++ {
							if set.Has(p) && !enabled(p) {
								return false
							}
						}
						return tracked
					}
					sel := sc.pick(sys, enabled, allEnabled)
					want := legacy.pick(step, sys, enabled)
					if len(sel) != 1 || sel[0] != want {
						t.Fatalf("%s dynamic=%v tracked=%v step %d: ring picks %v, reference picks %d",
							st.name, dynamic, tracked, step, sel, want)
					}
				}
			}
		}
	}
}

// TestLaziestFairMatchesReferenceOnFixpoint covers the all-disabled
// warmup ties (every process permanently tied at "never selected" until
// chosen) where the disabled/degree/id tie-break does the selecting.
func TestLaziestFairMatchesReferenceOnFixpoint(t *testing.T) {
	t.Parallel()
	r := rng.New(11)
	g := graph.RandomConnectedGNP(17, 0.3, r)
	sys, err := model.NewSystem(g, &model.Spec{
		Name: "T",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:  "copy",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys) // a fixpoint: everyone stays disabled
	sc := NewLaziestFair()
	legacy := &legacyLaziestFair{}
	for step := 0; step < 3*sys.N()+10; step++ {
		sel := sc.Select(step, sys, cfg)
		en := ref.EnabledSet(sys, cfg)
		want := legacy.pick(step, sys, func(p int) bool { return slices.Contains(en, p) })
		if len(sel) != 1 || sel[0] != want {
			t.Fatalf("step %d: ring picks %v, reference picks %d", step, sel, want)
		}
	}
}

// BenchmarkLaziestFairWarmup times the n picks of one warm-up (Reset
// included) at n = 400 on the tracked path: with every process enabled,
// where the whole-set probe answers every pick, and with every other one
// disabled, where the disabled half is found at the bucket's end first.
func BenchmarkLaziestFairWarmup(b *testing.B) {
	sys, err := model.NewSystem(graph.Torus(20, 20), coloring.Spec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	n := sys.N()
	for _, bc := range []struct {
		name    string
		enabled func(p int) bool
	}{
		{"all-enabled", func(int) bool { return true }},
		{"half-disabled", func(p int) bool { return p%2 == 0 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := NewLaziestFair()
			enabledSet := bitset.New(n)
			for p := 0; p < n; p++ {
				if bc.enabled(p) {
					enabledSet.Add(p)
				}
			}
			allEnabled := func(set *bitset.Set) bool { return set.SubsetOf(enabledSet) }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.Reset(0)
				for step := 0; step < n; step++ {
					sc.pick(sys, bc.enabled, allEnabled)
				}
			}
		})
	}
}
