package model_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
)

// handoffSpec sets X.p to one more (mod 4) than X behind port 1 while it
// is not. Its First hands the value it read to the statement only when
// that value is even; otherwise the statement reads it again. So the
// statement trusts a hand-off only if the engine empties it before every
// evaluation: one left over from an earlier evaluation on the same
// context would carry another process's value.
func handoffSpec() *model.Spec {
	next := func(c *model.Ctx) int { return (c.NeighborComm(1, 0) + 1) % 4 }
	return &model.Spec{
		Name: "HANDOFF",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:  "follow",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != next(c) },
			Apply: func(c *model.Ctx) {
				x, _, ok := c.Kept()
				if !ok {
					x = next(c)
				}
				c.SetComm(0, x)
			},
		}},
		First: func(c *model.Ctx) int {
			x := next(c)
			if x == c.Comm(0) {
				return -1
			}
			if x%2 == 0 {
				c.Keep(x, 0)
			}
			return 0
		},
	}
}

// TestHandoffIsPerEvaluation runs handoffSpec on the simulator, whose
// step arena evaluates every process on one reused context through First
// and its hand-off, and on the reference simulator, whose guard walk
// hands nothing over: the two must pass through the same configurations.
func TestHandoffIsPerEvaluation(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Cycle(9), handoffSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		initial := model.NewRandomConfig(sys, rng.New(seed))
		sim, err := model.NewSimulator(sys, initial, sched.NewRandomSubset(seed), seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive := ref.NewSim(sys, initial, sched.NewRandomSubset(seed), seed, nil)
		for step := range 200 {
			sim.Step()
			naive.Step()
			if !sim.Config().Equal(naive.Config()) {
				t.Fatalf("seed %d, step %d: the simulator left %v, the reference %v: a hand-off outlived its evaluation",
					seed, step, comms(sim.Config()), comms(naive.Config()))
			}
		}
	}
}

// comms lists X of every process of cfg.
func comms(cfg *model.Config) []int {
	out := make([]int, cfg.N())
	for p := range out {
		out[p] = cfg.Comm(p, 0)
	}
	return out
}
