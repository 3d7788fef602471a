package model_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// stampRun is one execution whose result a selection-stamp rebase must
// not move: a system from a random start run to silence, then a suffix
// of rounds and single steps on the silent phase's counts.
type stampRun struct {
	cfg          *model.Config
	steps        int
	rounds       int
	silentRounds int
	report       trace.Report
}

func runStamped(t *testing.T, sys *model.System, sc model.Scheduler) stampRun {
	t.Helper()
	const seed = 41
	rec := trace.NewRecorder(sys.N())
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(seed)), sc, seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := sim.RunUntilSilent(1_000_000, 1)
	if err != nil || !silent {
		t.Fatalf("%s: RunUntilSilent = (%v, %v), want silence", sc.Name(), silent, err)
	}
	silentRounds := sim.Rounds()
	rec.MarkSuffix()
	sim.RunRounds(3)
	for range 5 {
		sim.Step()
	}
	sim.RunRounds(2)
	return stampRun{sim.Config().Clone(), sim.Steps(), sim.Rounds(), silentRounds, rec.Report()}
}

// TestStampRebaseKeepsRounds: folding the selection stamps to "selected
// in the round in progress" changes nothing a run reports. Each
// scheduler's run is repeated with the stamp limit lowered so that
// rebases fall before every step or every few steps, most of them in
// the middle of a round, and must match the run that never rebased in
// configuration, steps, rounds and recorder report. The systems are
// MATCHING on torus-4x4 and, under the synchronous daemon, COLORING on
// torus-8x8, whose processes sit on counted cycles before silence, so a
// rebase closes and reopens their count windows.
func TestStampRebaseKeepsRounds(t *testing.T) {
	matching, err := engine.Build(graph.Torus(4, 4), engine.FamMatching, nil)
	if err != nil {
		t.Fatal(err)
	}
	coloring := coloringSystem(t, graph.Torus(8, 8))
	daemons := []struct {
		name      string
		sys       *model.System
		mk        func() model.Scheduler
		multiStep bool // rounds span several steps, so rebases land mid-round
	}{
		{"central-random", matching, func() model.Scheduler { return sched.NewCentralRandom(7) }, true},
		{"synchronous", matching, func() model.Scheduler { return sched.NewSynchronous() }, false},
		{"synchronous on COLORING", coloring, func() model.Scheduler { return sched.NewSynchronous() }, false},
		{"laziest-fair", matching, func() model.Scheduler { return sched.NewLaziestFair() }, true},
	}
	for _, d := range daemons {
		sys := d.sys
		want := runStamped(t, sys, d.mk())
		if d.multiStep && want.steps < 2*want.rounds {
			t.Fatalf("%s: %d steps in %d rounds: rounds do not span several steps", d.name, want.steps, want.rounds)
		}
		for _, limit := range []uint32{1, 2, 5} {
			restore := model.SetStampLimit(limit)
			got := runStamped(t, sys, d.mk())
			restore()
			if got.steps != want.steps || got.rounds != want.rounds || got.silentRounds != want.silentRounds {
				t.Fatalf("%s, limit %d: %d steps, %d rounds (%d to silence), want %d, %d (%d)", d.name, limit,
					got.steps, got.rounds, got.silentRounds, want.steps, want.rounds, want.silentRounds)
			}
			if !got.cfg.Equal(want.cfg) {
				t.Fatalf("%s, limit %d: final configuration differs from the run without rebases", d.name, limit)
			}
			if !reflect.DeepEqual(got.report, want.report) {
				t.Fatalf("%s, limit %d: recorder report differs:\n got  %+v\n want %+v", d.name, limit, got.report, want.report)
			}
		}
	}
}

// TestRepeatedIDAfterRebase: a repeated id in the step right after a
// rebase still panics with the scheduler's name, whether the process was
// selected in the step before the rebase or not.
func TestRepeatedIDAfterRebase(t *testing.T) {
	defer model.SetStampLimit(1)()
	sys := coloringSystem(t, graph.Cycle(4))
	for _, sel := range [][]int{{0, 0}, {2, 2}} {
		sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), &stepSelector{steps: [][]int{{0, 1}, sel}}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim.Step()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "scheduler step-selector selected process") || !strings.Contains(msg, "twice in one step") {
					t.Errorf("selection %v after a rebase: Step panicked with %q, want the repeated-id message", sel, msg)
				}
			}()
			sim.Step()
			t.Errorf("selection %v after a rebase: Step accepted it", sel)
		}()
	}
}

// stepSelector returns its selections in order, one per step.
type stepSelector struct{ steps [][]int }

func (*stepSelector) Name() string { return "step-selector" }

func (s *stepSelector) Select(step int, _ *model.System, _ *model.Config) []int { return s.steps[step] }
