package model_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// refSim is the abstract simulator the optimized one is judged against:
// every step goes through model.ExecuteStep (fresh contexts, no arena,
// no memo, no incremental cache) and rounds are counted with a plain
// set. Given the scheduler, seed and initial configuration of a
// model.Simulator it must walk through the same configurations and hand
// its observer the same call stream.
type refSim struct {
	sys   *model.System
	cfg   *model.Config
	sched model.Scheduler
	seed  uint64
	obs   model.Observer

	step int
	seen map[int]bool
}

func newRefSim(sys *model.System, cfg0 *model.Config, sc model.Scheduler, seed uint64, obs model.Observer) *refSim {
	return &refSim{sys: sys, cfg: cfg0.Clone(), sched: sc, seed: seed, obs: obs, seen: map[int]bool{}}
}

func (r *refSim) Step() {
	selected := append([]int(nil), r.sched.Select(r.step, r.sys, r.cfg)...)
	r.obs.StepBegin(r.step, selected)
	stepSeed := rng.Derive(r.seed, uint64(r.step))
	model.ExecuteStep(r.sys, r.cfg, selected, r.step, func(p int) *rng.Rand {
		return rng.New(rng.Derive(stepSeed, uint64(p)))
	}, r.obs)
	for _, p := range selected {
		r.seen[p] = true
	}
	roundCompleted := len(r.seen) == r.sys.N()
	if roundCompleted {
		r.seen = map[int]bool{}
	}
	r.obs.StepEnd(r.step, selected, roundCompleted)
	r.step++
}

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
// run repeats one drawn outcome where an unmemoized run redraws. The memo
// is on for every observer, so the unmemoized side is the reference
// simulator: both must walk through the same configurations and leave
// the same recorder report.
func TestMemoSkipsRandomizedTransitions(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Cycle(6), rerollSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2009
	initial := model.NewRandomConfig(sys, rng.New(seed))
	memoRec, refRec := trace.NewRecorder(sys.N()), trace.NewRecorder(sys.N())
	memo, err := model.NewSimulator(sys, initial, sched.NewRandomSubset(seed), seed, memoRec)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSim(sys, initial, sched.NewRandomSubset(seed), seed, refRec)
	for step := 0; step < 300; step++ {
		if silent, err := memo.SilentNow(); err != nil || !silent {
			t.Fatalf("step %d: SilentNow = (%v, %v), want silent: the memo is only live in a silent phase", step, silent, err)
		}
		memo.Step()
		ref.Step()
		if !memo.Config().Equal(ref.cfg) {
			t.Fatalf("step %d: the memoized run replayed a drawn transition:\n memo      %v\n reference %v",
				step, internals(sys, memo.Config()), internals(sys, ref.cfg))
		}
	}
	if got, want := memoRec.Report(), refRec.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorder reports differ:\n memo      %+v\n reference %+v", got, want)
	}
}

// TestStepMatchesReference holds Simulator.Step — one context, staged
// rows, folded reads, silent-phase memo with counted replays, injections
// through MarkDirty — to the reference simulator on real protocols: same
// configuration after every step through convergence, a marked suffix
// served from the memo, and a mid-suffix corruption that drops the memo
// and forces a second convergence. The recorder report is compared
// wherever the simulator's caller could look at it: after every bare
// Step of the marked suffix, after a RunRounds stretch (whose replays
// are handed over in one batch as it returns), after the MarkDirty that
// ends the stretch, and at the end.
func TestStepMatchesReference(t *testing.T) {
	t.Parallel()
	scheds := []func(seed uint64) model.Scheduler{
		func(seed uint64) model.Scheduler { return sched.NewRandomSubset(seed) },
		func(uint64) model.Scheduler { return sched.NewSynchronous() },
		func(uint64) model.Scheduler { return sched.NewCentralRoundRobin() },
	}
	for si, sys := range injectionTestSystems(t) {
		for ki, mk := range scheds {
			const seed = 7
			initial := model.NewRandomConfig(sys, rng.New(seed))
			simRec, refRec := trace.NewRecorder(sys.N()), trace.NewRecorder(sys.N())
			sim, err := model.NewSimulator(sys, initial, mk(seed), seed, simRec)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSim(sys, initial, mk(seed), seed, refRec)
			sameReports := func(when string) {
				t.Helper()
				if got, want := simRec.Report(), refRec.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("system %d sched %d, %s (step %d): recorder reports differ:\n simulator %+v\n reference %+v",
						si, ki, when, sim.Steps(), got, want)
				}
			}
			lockstep := func(steps int, everyStep bool) {
				t.Helper()
				for i := 0; i < steps; i++ {
					if _, err := sim.SilentNow(); err != nil {
						t.Fatal(err)
					}
					sim.Step()
					ref.Step()
					if !sim.Config().Equal(ref.cfg) {
						t.Fatalf("system %d sched %d step %d: configurations diverged", si, ki, sim.Steps())
					}
					if everyStep {
						sameReports("after a bare Step")
					}
				}
			}
			lockstep(400, false)
			if silent, err := sim.SilentNow(); err != nil || !silent {
				t.Fatalf("system %d sched %d: SilentNow = (%v, %v) after 400 steps, want a silent suffix", si, ki, silent, err)
			}
			simRec.MarkSuffix()
			refRec.MarkSuffix()
			lockstep(60, true)
			// A stretch the simulator runs on its own: the replays are
			// counted per visited state and delivered when RunRounds
			// returns.
			from := sim.Steps()
			sim.RunRounds(3)
			for ref.step < sim.Steps() {
				ref.Step()
			}
			if !sim.Config().Equal(ref.cfg) {
				t.Fatalf("system %d sched %d: configurations diverged over RunRounds from step %d", si, ki, from)
			}
			sameReports("after RunRounds")
			// The same corruption on both sides; only the simulator has
			// caches to repair.
			corruptRandom(sim, 2, rng.New(seed))
			ref.cfg.CopyFrom(sim.Config())
			sameReports("after MarkDirty")
			lockstep(400, false)
			sameReports("at the end")
		}
	}
}

// overSelector is a misbehaving scheduler: it returns its fixed
// selection whatever the system.
type overSelector []int

func (overSelector) Name() string                                     { return "over-selector" }
func (s overSelector) Select(int, *model.System, *model.Config) []int { return s }

// TestStepRejectsBadSelection: a selection that repeats a process (so
// every selection longer than n) or names a process outside the system
// must panic in Step with the scheduler's name, before any row is
// staged.
func TestStepRejectsBadSelection(t *testing.T) {
	t.Parallel()
	sys := coloringSystem(t, graph.Cycle(4))
	for name, sel := range map[string][]int{
		"longer than n": {0, 1, 2, 3, 0},
		"repeated id":   {2, 2},
		"out of range":  {4},
	} {
		sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), overSelector(sel), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "scheduler over-selector selected process") {
					t.Errorf("%s: Step panicked with %q, want a message naming the scheduler", name, msg)
				}
			}()
			sim.Step()
			t.Errorf("%s: Step accepted selection %v", name, sel)
		}()
	}
}

// internals lists cfg's internal values, process by process.
func internals(sys *model.System, cfg *model.Config) []int {
	var out []int
	for p := range cfg.N() {
		for v := range sys.InternalWidth() {
			out = append(out, cfg.Internal(p, v))
		}
	}
	return out
}
