package model_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// undeclaredSync selects what sched.Synchronous selects without
// declaring it, so the simulator serves it on the per-selection path.
type undeclaredSync struct{ sync sched.Synchronous }

func (*undeclaredSync) Name() string { return "synchronous" }

func (u *undeclaredSync) Select(step int, sys *model.System, cfg *model.Config) []int {
	return u.sync.Select(step, sys, cfg)
}

// undeclaredSubset selects what sched.RandomSubset selects, through
// Select, without declaring SelectMask, so the simulator serves it on the
// per-selection path.
type undeclaredSubset struct{ sub *sched.RandomSubset }

func (*undeclaredSubset) Name() string { return "random-subset" }

func (u *undeclaredSubset) Select(step int, sys *model.System, cfg *model.Config) []int {
	return u.sub.Select(step, sys, cfg)
}

// liveProbe extends settleProbe with the two shapes of the live set that
// TestLiveSetMatchesPerSelectionPath must cover: a process that leaves
// the live set and rejoins it, read off the simulator after every step,
// and a disabled window settled by a neighbor's write, which shows as a
// disabled Selected call inside a step standing for more than one
// selection (an evaluation stands for one).
type liveProbe struct {
	settleProbe
	sim      *model.Simulator
	left     []bool
	rejoined int
	settled  int
}

func (o *liveProbe) Selected(step, p int, neighbors []int, bits, fired, times int) {
	o.settleProbe.Selected(step, p, neighbors, bits, fired, times)
	if o.inStep && fired < 0 && times > 1 {
		o.settled++
	}
}

func (o *liveProbe) StepEnd(step, selections int, roundCompleted bool) {
	o.settleProbe.StepEnd(step, selections, roundCompleted)
	for p := range o.left {
		switch live := o.sim.Live(p); {
		case !live:
			o.left[p] = true
		case o.left[p]:
			o.left[p] = false
			o.rejoined++
		}
	}
}

// TestLiveSetMatchesPerSelectionPath: under a mask daemon a step
// evaluates only the selected processes of the live set and counts the
// others' selections, under sched.Synchronous by the step clock and under
// sched.RandomSubset in their windows. The synchronous cases of
// TestCountedCyclesMatchSteppedSteps — COLORING, MIS, MATCHING, the
// cached-view MATCHING and the BFS tree on four graphs, seeds 1–3, one
// stretch to a point mid-run, a MarkDirty corruption, one stretch to
// silence — and the same cases on a MutableCopy with a topology event
// in place of the corruption must leave, after every stretch, the same
// configuration, step and round counts and recorder report as a twin
// whose scheduler selects the same lists without declaring a mask. The
// same cases run under random-subset against an undeclaredSubset twin;
// torus-12x12 spreads their masks over three words. Each run goes on past
// silence through RunRounds stretches, a second corruption and a run back
// to silence. Under each daemon the cases must cover a settle forced by
// a neighbor's write, a disabled window settled by a neighbor's write,
// and a process that leaves the live set and rejoins it.
func TestLiveSetMatchesPerSelectionPath(t *testing.T) {
	t.Parallel()
	graphs := []*graph.Graph{graph.Cycle(9), graph.Grid(3, 4), graph.RandomConnectedGNP(12, 0.3, rng.New(4)), graph.Torus(12, 12)}
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching, engine.FamMatchingXform, engine.FamBFSTree}
	type coverage struct{ forced, settled, rejoined int }
	daemons := []string{"synchronous", "random-subset"}
	seen := map[string]*coverage{}
	for _, daemon := range daemons {
		cov := &coverage{}
		seen[daemon] = cov
		for _, g := range graphs {
			for _, fam := range families {
				sys, err := engine.Build(g, fam, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, dynamic := range []bool{false, true} {
					name := fmt.Sprintf("%s on %s (dynamic %v)", fam, g.Name(), dynamic)
					if daemon != "synchronous" {
						name = fmt.Sprintf("%s on %s under %s (dynamic %v)", fam, g.Name(), daemon, dynamic)
					}
					t.Run(name, func(t *testing.T) {
						for seed := uint64(1); seed <= 3; seed++ {
							probe := checkLiveSet(t, sys, daemon, dynamic, seed)
							cov.forced += probe.forced
							cov.settled += probe.settled
							cov.rejoined += probe.rejoined
						}
					})
				}
			}
		}
	}
	for _, daemon := range daemons {
		if cov := seen[daemon]; cov.forced == 0 || cov.settled == 0 || cov.rejoined == 0 {
			t.Fatalf("coverage under %s: %d settles forced by a neighbor's write, %d disabled windows settled by one, %d returns to the live set; want each > 0",
				daemon, cov.forced, cov.settled, cov.rejoined)
		}
	}
}

// checkLiveSet runs one seed of a TestLiveSetMatchesPerSelectionPath
// case under daemon and returns the live side's probe.
func checkLiveSet(t *testing.T, sys *model.System, daemon string, dynamic bool, seed uint64) *liveProbe {
	t.Helper()
	g, n := sys.Graph(), sys.N()
	liveSys, plainSys := sys, sys
	if dynamic {
		liveSys, plainSys = sys.MutableCopy(), sys.MutableCopy()
	}
	initial := model.NewRandomConfig(sys, rng.New(seed))
	liveRec, plainRec := trace.NewRecorder(n), trace.NewRecorder(n)
	mk := func() model.Scheduler {
		sc, err := sched.ByName(daemon, seed)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	var undeclared model.Scheduler = &undeclaredSync{}
	if daemon == "random-subset" {
		undeclared = &undeclaredSubset{sched.NewRandomSubset(seed)}
	}
	probe := &liveProbe{
		settleProbe: settleProbe{Observer: liveRec, twin: mk(), sys: sys, selected: make([]bool, n)},
		left:        make([]bool, n),
	}
	live, err := model.NewSimulator(liveSys, initial, mk(), seed, probe)
	if err != nil {
		t.Fatal(err)
	}
	probe.sim = live
	plain, err := model.NewSimulator(plainSys, initial, undeclared, seed, plainRec)
	if err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		if !live.Config().Equal(plain.Config()) {
			t.Fatalf("seed %d, %s: configurations differ:\n live %v\n plain %v",
				seed, when, internals(sys, live.Config()), internals(sys, plain.Config()))
		}
		if live.Steps() != plain.Steps() || live.Rounds() != plain.Rounds() {
			t.Fatalf("seed %d, %s: %d steps, %d rounds; plain %d, %d",
				seed, when, live.Steps(), live.Rounds(), plain.Steps(), plain.Rounds())
		}
		if got, want := liveRec.Report(), plainRec.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %s: recorder reports differ:\n live %+v\n plain %+v", seed, when, got, want)
		}
	}
	stretch := func(maxSteps int, when string) {
		t.Helper()
		var silent [2]bool
		for i, sim := range []*model.Simulator{live, plain} {
			var err error
			if silent[i], err = sim.RunUntilSilent(maxSteps, 1); err != nil {
				t.Fatal(err)
			}
		}
		if silent[0] != silent[1] {
			t.Fatalf("seed %d, %s: silent %v, plain %v", seed, when, silent[0], silent[1])
		}
		same(when)
	}
	// strike corrupts one process on both sides, or on a MutableCopy
	// applies one topology event.
	mut := [2]*topoMutator{newTopoMutator(g, rng.New(rng.Derive(seed, 7))), newTopoMutator(g, rng.New(rng.Derive(seed, 7)))}
	strike := func(salt uint64) {
		p := int(rng.Derive(seed, salt) % uint64(n))
		for i, sim := range []*model.Simulator{live, plain} {
			if dynamic {
				mut[i].apply(sim, nil)
				continue
			}
			model.RandomizeProcess(sys, sim.Config(), p, rng.New(rng.Derive(seed, salt+1)))
			sim.MarkDirty(p)
		}
	}
	stretch(3, "mid-run")
	strike(99)
	stretch(live.Steps()+200_000, "after a strike")
	liveRec.MarkSuffix()
	plainRec.MarkSuffix()
	for _, k := range []int{1, 2, 5} {
		live.RunRounds(k)
		plain.RunRounds(k)
		same(fmt.Sprintf("after RunRounds(%d) past silence", k))
	}
	strike(199)
	stretch(live.Steps()+200_000, "after a strike past silence")
	return probe
}
