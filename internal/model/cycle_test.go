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

// selectionCounter counts the selections of every process while it
// forwards each call to the recorder it wraps.
type selectionCounter struct {
	model.Observer
	count []int
}

func (o *selectionCounter) StepBegin(step int, selected []int) {
	o.Observer.StepBegin(step, selected)
	for _, p := range selected {
		o.count[p]++
	}
}

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
	var sel *selectionCounter
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
		sel = &selectionCounter{Observer: countedRec, count: make([]int, n)}
		counted, stepped = mk(countedRec, sel), mk(steppedRec, steppedRec)
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
	// silence, then the one after each selection.
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
		clear(sel.count)
		counted.RunRounds(k)
		stretches = append(stretches, append([]int(nil), sel.count...))
		for target := stepped.Rounds() + k; stepped.Rounds() < target; {
			for _, p := range stepped.Step() {
				orbit[p] = append(orbit[p], row(p))
			}
		}
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
