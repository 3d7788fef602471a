package model_test

// The silence cache keeps a "silent" verdict across moves that write no
// communication variable (see the package comment's invalidation
// invariant). These tests hold SilentNow to the from-scratch CommSilent
// oracle where that rule matters — protocols whose internal counters
// keep ticking in the silent phase — and pin what the rule buys.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// checkSilence fails unless SilentNow agrees with the CommSilent oracle.
func checkSilence(t *testing.T, sim *model.Simulator, what string) bool {
	t.Helper()
	got, err := sim.SilentNow()
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.CommSilent(sim.Sys(), sim.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("step %d (%s): SilentNow=%v, CommSilent oracle=%v", sim.Steps(), what, got, want)
	}
	return got
}

// TestSilentNowMatchesOracle walks every protocol family under every
// daemon shape through convergence, a marked suffix, a mid-suffix
// MarkDirty corruption and a churn stream, comparing SilentNow with the
// oracle after every step and every external mutation.
func TestSilentNowMatchesOracle(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 4)
	for _, family := range []string{engine.FamColoring, engine.FamMIS, engine.FamMatching, engine.FamBFSTree} {
		base, _, err := engine.System(g, family)
		if err != nil {
			t.Fatal(err)
		}
		for _, daemon := range []string{"random-subset", "synchronous", "central-rr", "laziest-fair"} {
			t.Run(family+"/"+daemon, func(t *testing.T) {
				const seed = 5
				sc, err := sched.ByName(daemon, seed)
				if err != nil {
					t.Fatal(err)
				}
				sys := base.MutableCopy()
				sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(seed)), sc, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				converge := func(what string) {
					t.Helper()
					for !checkSilence(t, sim, what) {
						if sim.Steps() > 20000 {
							t.Fatalf("%s: no silence within budget", what)
						}
						sim.Step()
					}
				}
				suffix := func(what string) {
					t.Helper()
					for i := 0; i < 40; i++ {
						sim.Step()
						if !checkSilence(t, sim, what) {
							t.Fatalf("step %d (%s): silence lost under Step", sim.Steps(), what)
						}
					}
				}
				converge("convergence")
				suffix("suffix")
				adv := rng.New(rng.Derive(seed, 99))
				corruptRandom(sim, 2, adv)
				checkSilence(t, sim, "post-corruption")
				converge("recovery")
				suffix("second suffix")
				mut := newTopoMutator(base.Graph(), rng.New(rng.Derive(seed, 7)))
				var affected []int
				for i := 0; i < 60; i++ {
					if i%5 == 0 {
						affected = mut.apply(sim, affected[:0])
						checkSilence(t, sim, "post-event")
					}
					sim.Step()
					checkSilence(t, sim, "churn")
				}
			})
		}
	}
}

// tickerSpec is a protocol that is silent from the start and never
// quiet: every process is always enabled and every move advances an
// internal counter, writing no communication variable. probed records
// the processes whose guard ran.
func tickerSpec(probed map[int]bool) *model.Spec {
	return &model.Spec{
		Name:     "TICKER",
		Comm:     []model.VarSpec{{Name: "c", Domain: model.FixedDomain(2)}},
		Internal: []model.VarSpec{{Name: "cur", Domain: model.FixedDomain(8)}},
		Actions: []model.Action{{
			Name: "tick",
			Guard: func(c *model.Ctx) bool {
				probed[c.P()] = true
				return true
			},
			Apply: func(c *model.Ctx) { c.SetInternal(0, (c.Internal(0)+1)%8) },
		}},
	}
}

// TestSilentNowCostFollowsCommActivity: on a silent configuration whose
// every process still moves each step, SilentNow re-probes nobody after
// a step, and after one MarkDirty only the marked process and its
// neighbors. Before the verdict survived internal-only moves, each
// synchronous step re-opened all n orbits.
func TestSilentNowCostFollowsCommActivity(t *testing.T) {
	probed := map[int]bool{}
	g := graph.Grid(20, 20)
	sys, err := model.NewSystem(g, tickerSpec(probed), nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sched.NewSynchronous(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	silentNow := func() int {
		t.Helper()
		clear(probed)
		silent, err := sim.SilentNow()
		if err != nil || !silent {
			t.Fatalf("SilentNow = %v, %v on a protocol that never writes communication state", silent, err)
		}
		return len(probed)
	}
	if got := silentNow(); got != g.N() {
		t.Fatalf("first SilentNow probed %d processes, want all %d", got, g.N())
	}
	for i := 0; i < 3; i++ {
		sim.Step()
		if got := silentNow(); got != 0 {
			t.Fatalf("SilentNow after internal-only step %d probed %d processes, want 0", i, got)
		}
	}
	p := g.N()/2 + 10 // interior: degree Δ
	sim.MarkDirty(p)
	if got, limit := silentNow(), g.MaxDegree()+1; got > limit {
		t.Fatalf("SilentNow after one MarkDirty probed %d processes, want <= Δ+1 = %d", got, limit)
	}
}
