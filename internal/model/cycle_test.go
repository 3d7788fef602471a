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

// orbitShape returns the tail length and the cycle length of a sequence
// of states that reaches a repeat (cycle 0: none yet).
func orbitShape(states []string) (tail, cycle int) {
	first := map[string]int{}
	for i, s := range states {
		if j, ok := first[s]; ok {
			return j, i - j
		}
		first[s] = i
	}
	return len(states), 0
}

// TestClosedOrbitsMatchSteppedRounds: from a silent configuration,
// RunRounds(k) — one stretch, over which a process on a closed orbit is a
// count applied in closed form when the stretch ends — leaves the same
// configuration, step and round counts and recorder report as the same
// rounds driven by bare Step calls, each of which settles its counts.
// k runs through 1, n and 6n rounds in turn on COLORING, MIS, MATCHING,
// the cached-view MATCHING and the BFS tree on three graphs under three
// daemons. The stepped side also records each process's internal row
// after each of its selections, so the test can require that the cases
// cover an orbit with a tail, a cycle longer than one state and a stretch
// whose count on such a cycle is not a multiple of its length.
func TestClosedOrbitsMatchSteppedRounds(t *testing.T) {
	t.Parallel()
	graphs := []*graph.Graph{graph.Cycle(9), graph.Grid(3, 4), graph.RandomConnectedGNP(12, 0.3, rng.New(4))}
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching, engine.FamMatchingXform, engine.FamBFSTree}
	daemons := []string{"random-subset", "central-random", "laziest-fair"}
	var tails, cycles, remainders int
	for _, g := range graphs {
		for _, fam := range families {
			sys, err := engine.Build(g, fam, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, daemon := range daemons {
				name := fmt.Sprintf("%s on %s under %s", fam, g.Name(), daemon)
				t.Run(name, func(t *testing.T) {
					tl, cy, rem := checkClosedOrbits(t, sys, daemon)
					tails += tl
					cycles += cy
					remainders += rem
				})
			}
		}
	}
	if tails == 0 || cycles == 0 || remainders == 0 {
		t.Fatalf("coverage: %d orbits with a tail, %d cycles longer than one state, %d stretches ending mid-cycle; want each > 0",
			tails, cycles, remainders)
	}
}

// checkClosedOrbits runs one case of TestClosedOrbitsMatchSteppedRounds
// and returns how many of its processes' orbits have a tail and a cycle
// longer than one state, and how many stretches left a count on such a
// cycle that is not a multiple of its length.
func checkClosedOrbits(t *testing.T, sys *model.System, daemon string) (tails, cycles, remainders int) {
	t.Helper()
	n := sys.N()
	var counted, stepped *model.Simulator
	var countedRec, steppedRec *trace.Recorder
	for seed := uint64(1); ; seed++ {
		if seed > 20 {
			t.Skip("no seed of 1..20 reaches silence")
		}
		initial := model.NewRandomConfig(sys, rng.New(seed))
		mk := func(rec *trace.Recorder, obs model.Observer) *model.Simulator {
			sc, err := sched.ByName(daemon, seed)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := model.NewSimulator(sys, initial, sc, seed, obs)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		countedRec, steppedRec = trace.NewRecorder(n), trace.NewRecorder(n)
		counted, stepped = mk(countedRec, countedRec), mk(steppedRec, steppedRec)
		silent, err := counted.RunUntilSilent(100_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stepped.RunUntilSilent(100_000, 1); err != nil {
			t.Fatal(err)
		}
		if silent {
			break
		}
	}
	countedRec.MarkSuffix()
	steppedRec.MarkSuffix()

	// orbit[p] lists p's internal rows on the stepped side: the one at
	// silence, then the one after each selection. Both sides select alike,
	// so the entries a stretch adds count p's selections in it.
	row := func(p int) string {
		var out []int
		for v := range sys.InternalWidth() {
			out = append(out, stepped.Config().Internal(p, v))
		}
		return fmt.Sprint(out)
	}
	orbit := make([][]string, n)
	for p := range n {
		orbit[p] = []string{row(p)}
	}
	var stretches [][]int // selections per process, one list per stretch
	for _, k := range []int{1, n, 6 * n} {
		counted.RunRounds(k)
		count := make([]int, n)
		for p := range n {
			count[p] = -len(orbit[p])
		}
		for target := stepped.Rounds() + k; stepped.Rounds() < target; {
			for _, p := range stepped.Step() {
				orbit[p] = append(orbit[p], row(p))
			}
		}
		for p := range n {
			count[p] += len(orbit[p])
		}
		stretches = append(stretches, count)
		if !counted.Config().Equal(stepped.Config()) {
			t.Fatalf("after RunRounds(%d): configurations differ:\n counted %v\n stepped %v",
				k, internals(sys, counted.Config()), internals(sys, stepped.Config()))
		}
		if counted.Steps() != stepped.Steps() || counted.Rounds() != stepped.Rounds() {
			t.Fatalf("after RunRounds(%d): %d steps, %d rounds; stepped %d, %d",
				k, counted.Steps(), counted.Rounds(), stepped.Steps(), stepped.Rounds())
		}
		if got, want := countedRec.Report(), steppedRec.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after RunRounds(%d): recorder reports differ:\n counted %+v\n stepped %+v", k, got, want)
		}
	}
	for p := range n {
		tail, cycle := orbitShape(orbit[p])
		if tail > 0 && cycle > 0 {
			tails++
		}
		if cycle > 1 {
			cycles++
			for _, count := range stretches {
				if count[p]%cycle != 0 {
					remainders++
				}
			}
		}
	}
	return tails, cycles, remainders
}

// settleProbe forwards every call to the recorder it wraps and counts
// the two shapes of convergence settle TestCountedCyclesMatchSteppedSteps
// must cover. Before silence only a settle hands over a Selected call
// with fired ≥ 0 and a count other than one, or one for a process the
// step in progress did not select. So a settle forced by a neighbor's
// write is such a call inside a step, and a settle of k ≥ L counts
// ending mid-cycle shows as two consecutive entries of one process
// carrying k/L + 1 and k/L ≥ 1 selections. The step hooks carry no
// list, so the probe learns each step's selection from twin, a scheduler
// of the same name and seed as the simulator's, which it asks in
// lockstep (none of the daemons it runs under reads the configuration).
type settleProbe struct {
	model.Observer
	twin      model.Scheduler
	sys       *model.System
	inStep    bool
	selected  []bool
	last      [3]int // p, fired, times of the previous Selected call
	forced    int
	remainder int
}

func (o *settleProbe) StepBegin(step, selections int) {
	o.Observer.StepBegin(step, selections)
	o.inStep = true
	sel := o.twin.Select(step, o.sys, nil)
	if len(sel) != selections {
		panic(fmt.Sprintf("settleProbe: step %d selected %d processes, its twin %d", step, selections, len(sel)))
	}
	for _, p := range sel {
		o.selected[p] = true
	}
}

func (o *settleProbe) StepEnd(step, selections int, roundCompleted bool) {
	o.Observer.StepEnd(step, selections, roundCompleted)
	o.inStep = false
	clear(o.selected)
}

func (o *settleProbe) Selected(step, p int, neighbors []int, bits, fired, times int) {
	o.Observer.Selected(step, p, neighbors, bits, fired, times)
	if fired >= 0 {
		if o.inStep && (times != 1 || !o.selected[p]) {
			o.forced++
		}
		if last := o.last; last[0] == p && last[1] >= 0 && times >= 1 && last[2] == times+1 {
			o.remainder++
		}
	}
	o.last = [3]int{p, fired, times}
}

// TestCountedCyclesMatchSteppedSteps: before silence, a process whose
// neighborhood is frozen and whose transitions close a cycle is counted,
// not evaluated, and its count is settled in closed form when the
// stepping method returns or a neighbor is about to write. From random
// configurations, RunUntilSilent — one stretch to a point mid-run, a
// MarkDirty corruption, one stretch to silence — must leave the same
// configuration, step and round counts and recorder report as a twin on
// the same seed driven by bare Step calls, each of which settles its
// counts, with a silence check after each. The cases run COLORING, MIS,
// MATCHING, the cached-view MATCHING and the BFS tree on four graphs
// under three daemons, and must cover a settle forced by a neighbor's
// write and one whose count is at least its cycle's length and not a
// multiple of it.
func TestCountedCyclesMatchSteppedSteps(t *testing.T) {
	t.Parallel()
	// torus-12x12 counts more processes at once than the due list holds
	// (64), so its settles sweep the counts.
	graphs := []*graph.Graph{graph.Cycle(9), graph.Grid(3, 4), graph.RandomConnectedGNP(12, 0.3, rng.New(4)), graph.Torus(12, 12)}
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching, engine.FamMatchingXform, engine.FamBFSTree}
	daemons := []string{"synchronous", "random-subset", "central-random"}
	var forced, remainder int
	for _, g := range graphs {
		for _, fam := range families {
			sys, err := engine.Build(g, fam, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, daemon := range daemons {
				name := fmt.Sprintf("%s on %s under %s", fam, g.Name(), daemon)
				t.Run(name, func(t *testing.T) {
					f, r := checkCountedCycles(t, sys, daemon)
					forced += f
					remainder += r
				})
			}
		}
	}
	if forced == 0 || remainder == 0 {
		t.Fatalf("coverage: %d settles forced by a neighbor's write, %d settles of k >= L with k mod L != 0; want each > 0",
			forced, remainder)
	}
}

// checkCountedCycles runs one case of TestCountedCyclesMatchSteppedSteps
// at three seeds and returns the forced and mid-cycle settles it saw.
func checkCountedCycles(t *testing.T, sys *model.System, daemon string) (forced, remainder int) {
	t.Helper()
	n := sys.N()
	mid := map[string]int{"synchronous": 3, "random-subset": 6, "central-random": 2 * n}[daemon]
	for seed := uint64(1); seed <= 3; seed++ {
		initial := model.NewRandomConfig(sys, rng.New(seed))
		mk := func(obs model.Observer) *model.Simulator {
			sc, err := sched.ByName(daemon, seed)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := model.NewSimulator(sys, initial, sc, seed, obs)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		countedRec, steppedRec := trace.NewRecorder(n), trace.NewRecorder(n)
		twin, err := sched.ByName(daemon, seed)
		if err != nil {
			t.Fatal(err)
		}
		probe := &settleProbe{Observer: countedRec, twin: twin, sys: sys, selected: make([]bool, n)}
		counted, stepped := mk(probe), mk(steppedRec)
		stretch := func(maxSteps int, when string) {
			t.Helper()
			got, err := counted.RunUntilSilent(maxSteps, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stepped.SilentNow()
			for err == nil && !want && stepped.Steps() < maxSteps {
				stepped.Step()
				want, err = stepped.SilentNow()
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d, %s: silent %v, stepped %v", seed, when, got, want)
			}
			if !counted.Config().Equal(stepped.Config()) {
				t.Fatalf("seed %d, %s: configurations differ:\n counted %v\n stepped %v",
					seed, when, internals(sys, counted.Config()), internals(sys, stepped.Config()))
			}
			if counted.Steps() != stepped.Steps() || counted.Rounds() != stepped.Rounds() {
				t.Fatalf("seed %d, %s: %d steps, %d rounds; stepped %d, %d",
					seed, when, counted.Steps(), counted.Rounds(), stepped.Steps(), stepped.Rounds())
			}
			if got, want := countedRec.Report(), steppedRec.Report(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: recorder reports differ:\n counted %+v\n stepped %+v", seed, when, got, want)
			}
		}
		stretch(mid, "mid-run")
		p := int(rng.Derive(seed, 99) % uint64(n))
		for _, sim := range []*model.Simulator{counted, stepped} {
			model.RandomizeProcess(sys, sim.Config(), p, rng.New(rng.Derive(seed, 100)))
			sim.MarkDirty(p)
		}
		stretch(counted.Steps()+200_000, "after a corruption")
		forced += probe.forced
		remainder += probe.remainder
	}
	return forced, remainder
}
