package model_test

// The silence cache keeps a "silent" verdict across moves that write no
// communication variable (see the package comment's invalidation
// invariant). These tests hold SilentNow to the reference's ref.Silent
// where that rule matters — protocols whose internal counters keep
// ticking in the silent phase — pin what the rule buys, and pin the orbit
// walker's budget.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
)

// checkSilence fails unless SilentNow agrees with the reference.
func checkSilence(t *testing.T, sim *model.Simulator, what string) bool {
	t.Helper()
	got, err := sim.SilentNow()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Silent(sim.Sys(), sim.Config()); got != want {
		t.Fatalf("step %d (%s): SilentNow=%v, ref.Silent=%v", sim.Steps(), what, got, want)
	}
	return got
}

// TestSilentNowMatchesOracle walks every protocol family under every
// daemon shape through convergence, a marked suffix, a mid-suffix
// MarkDirty corruption and a churn stream, comparing SilentNow with the
// reference after every step and every external mutation.
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

// trapSpec is a protocol that is silent everywhere but at a trap: every
// process ticks an internal counter without writing communication
// state, and one whose communication variable is 1 panics in Apply, so
// its orbit walk ends in an error.
func trapSpec() *model.Spec {
	return &model.Spec{
		Name:     "TRAP",
		Comm:     []model.VarSpec{{Name: "trap", Domain: model.FixedDomain(2)}},
		Internal: []model.VarSpec{{Name: "cur", Domain: model.FixedDomain(8)}},
		Actions: []model.Action{{
			Name:  "tick",
			Guard: func(*model.Ctx) bool { return true },
			Apply: func(c *model.Ctx) {
				if c.Comm(0) == 1 {
					panic("trap")
				}
				c.SetInternal(0, (c.Internal(0)+1)%8)
			},
		}},
	}
}

// TestSilentNowSweep holds SilentNow to CommSilent, error included, on
// the sweep over the processes never probed since Reset: with the trap
// at the sweep's first process, in its middle and at its last; set by a
// MarkDirty on a never-probed process before the first call; probed
// again by the next call after its walk failed; cleared by a MarkDirty;
// and set again in a configuration Reset hands the same system, which
// must start the sweep over.
func TestSilentNowSweep(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Grid(5, 4), trapSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{sys.N() - 1, sys.N() / 2, 0} {
		sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), sched.NewSynchronous(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		agree := func(what string, wantTrap bool) {
			t.Helper()
			got, gotErr := sim.SilentNow()
			want, wantErr := model.CommSilent(sys, sim.Config())
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("trap at %d, %s: SilentNow = (%v, %v), CommSilent = (%v, %v)", k, what, got, gotErr, want, wantErr)
			}
			if (wantErr != nil) != wantTrap {
				t.Fatalf("trap at %d, %s: CommSilent error %v, want one: %v", k, what, wantErr, wantTrap)
			}
		}
		sim.Config().SetComm(k, 0, 1)
		sim.MarkDirty(k)
		agree("first call", true)
		agree("call after the failed walk", true)
		sim.Config().SetComm(k, 0, 0)
		sim.MarkDirty(k)
		agree("trap cleared", false)
		trapped := model.NewZeroConfig(sys)
		trapped.SetComm(k, 0, 1)
		if err := sim.Reset(sys, trapped, sched.NewSynchronous(), 1, nil); err != nil {
			t.Fatal(err)
		}
		agree("after Reset", true)
	}
}

// counterSpec is a protocol whose every process ticks an internal counter
// through an orbit of states states without writing communication state:
// 0, 1, ..., states-1, then back to loop (0: a cycle from the start; any
// other: a ρ whose tail is 0..loop-1).
func counterSpec(states, loop int) *model.Spec {
	return &model.Spec{
		Name:     "COUNTER",
		Comm:     []model.VarSpec{{Name: "c", Domain: model.FixedDomain(2)}},
		Internal: []model.VarSpec{{Name: "t", Domain: model.FixedDomain(states)}},
		Actions: []model.Action{{
			Name:  "tick",
			Guard: func(*model.Ctx) bool { return true },
			Apply: func(c *model.Ctx) {
				if t := c.Internal(0) + 1; t < states {
					c.SetInternal(0, t)
				} else {
					c.SetInternal(0, loop)
				}
			},
		}},
	}
}

// TestOrbitBudget: the walker behind SilentNow and CommSilent takes time
// linear in the orbit and no visited set. A 2¹⁷-state counter overruns
// its budget of 2¹⁶ transitions and both report "orbit exceeded" well
// inside half a second; a 2¹⁴-state orbit, a cycle or a ρ, is decided
// silent by both, as the reference decides it.
func TestOrbitBudget(t *testing.T) {
	for _, tc := range []struct {
		name         string
		states, loop int
		wantExceeded bool
	}{
		{"2^17 cycle", 1 << 17, 0, true},
		{"2^14 cycle", 1 << 14, 0, false},
		{"2^14 rho", 1 << 14, 1 << 13, false},
	} {
		sys, err := model.NewSystem(graph.Path(2), counterSpec(tc.states, tc.loop), nil)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), sched.NewSynchronous(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, check := range map[string]func() (bool, error){
			"SilentNow":  sim.SilentNow,
			"CommSilent": func() (bool, error) { return model.CommSilent(sys, sim.Config()) },
		} {
			start := time.Now()
			silent, err := check()
			elapsed := time.Since(start)
			if tc.wantExceeded {
				if err == nil || !strings.Contains(err.Error(), "orbit exceeded") {
					t.Errorf("%s, %s: (%v, %v), want the orbit exceeded error", tc.name, name, silent, err)
				}
			} else if err != nil || !silent {
				t.Errorf("%s, %s: (%v, %v), want silent", tc.name, name, silent, err)
			}
			if elapsed > 500*time.Millisecond {
				t.Errorf("%s, %s took %v, want under 0.5 s", tc.name, name, elapsed)
			}
		}
		if !tc.wantExceeded && !ref.Silent(sys, sim.Config()) {
			t.Errorf("%s: ref.Silent disagrees", tc.name)
		}
	}
}
