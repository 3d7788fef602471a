package model_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// plainObserver implements model.Observer and nothing more: without the
// batched-read form the simulator cannot replay through it, so a run it
// observes never uses the silent-phase memo.
type plainObserver struct{}

func (plainObserver) StepBegin(int, []int)                        {}
func (plainObserver) Read(int, int, int, model.VarKind, int, int) {}
func (plainObserver) ActionFired(int, int, int)                   {}
func (plainObserver) CommWrite(int, int, int, int, int)           {}
func (plainObserver) StepEnd(int, []int, bool)                    {}

// rerollSpec is a toy protocol whose one action is always enabled,
// never touches the communication variable and redraws the internal one
// uniformly. The orbit probe behind SilentNow runs Apply without a
// generator and reports a draw as an error, so no well-behaved spec gets
// a drawing action into a silent phase; this one survives the probe by
// recovering, which the Spec facade cannot forbid. The probe then sees
// an internal-only no-op and the configuration counts as silent.
func rerollSpec() *model.Spec {
	return &model.Spec{
		Name:     "REROLL",
		Comm:     []model.VarSpec{{Name: "c", Domain: model.FixedDomain(2)}},
		Internal: []model.VarSpec{{Name: "x", Domain: model.FixedDomain(8)}},
		Actions: []model.Action{{
			Name:  "reroll",
			Guard: func(c *model.Ctx) bool { return c.NeighborComm(1, 0) >= 0 },
			Apply: func(c *model.Ctx) {
				defer func() { _ = recover() }()
				c.SetInternal(0, c.Rand(8))
			},
		}},
	}
}

// TestMemoSkipsRandomizedTransitions: a silent-phase transition whose
// Apply drew randomness must not be replayed from the memo, or a memoized
// run repeats one drawn outcome where an unmemoized run redraws. A
// recorder-observed run (memo on) and a plain-Observer run (memo off)
// must therefore walk through the same configurations.
func TestMemoSkipsRandomizedTransitions(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Cycle(6), rerollSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2009
	initial := model.NewRandomConfig(sys, rng.New(seed))
	memo, err := model.NewSimulator(sys, initial, sched.NewRandomSubset(seed), seed, trace.NewRecorder(sys.N()))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := model.NewSimulator(sys, initial, sched.NewRandomSubset(seed), seed, plainObserver{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		for name, sim := range map[string]*model.Simulator{"memo": memo, "plain": plain} {
			if silent, err := sim.SilentNow(); err != nil || !silent {
				t.Fatalf("step %d, %s run: SilentNow = (%v, %v), want silent: the memo is only live in a silent phase", step, name, silent, err)
			}
			sim.Step()
		}
		if !memo.Config().Equal(plain.Config()) {
			t.Fatalf("step %d: the memoized run replayed a drawn transition:\n memo  %v\n plain %v",
				step, memo.Config().Internal, plain.Config().Internal)
		}
	}
}
