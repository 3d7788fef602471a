package model_test

// Steady-state performance contract of the step engine: after warmup,
// Simulator.Step and the incremental EnabledTracker allocate nothing, and
// a daemon served by the simulator's tracker selects as one served by a
// fresh tracker each step. These tests pin the contract; the benchmarks
// in bench_engine_test.go quantify it (FuzzSimulatorVsReference holds the
// tracker to the reference's enabled set).

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

func coloringSystem(t testing.TB, g *graph.Graph) *model.System {
	t.Helper()
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// writersSpec is a protocol in which every selected process fires: those
// with p mod 5 < writers flip their communication bit, the others advance
// an internal pointer, and each reads one neighbor first, as COLORING's
// common action does. It puts a chosen share of communication writers in
// every step.
func writersSpec(writers int) *model.Spec {
	return &model.Spec{
		Name:     "WRITERS",
		Comm:     []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
		Internal: []model.VarSpec{{Name: "cur", Domain: func(i model.DomainInfo) int { return i.Degree }}},
		Actions: []model.Action{{
			Name:  "move",
			Guard: func(c *model.Ctx) bool { return c.NeighborComm(c.Internal(0)+1, 0) >= 0 },
			Apply: func(c *model.Ctx) {
				if c.P()%5 < writers {
					c.SetComm(0, 1-c.Comm(0))
				} else {
					c.SetInternal(0, (c.Internal(0)+1)%c.Deg())
				}
			},
		}},
	}
}

func writersSystem(t testing.TB, writers int) *model.System {
	t.Helper()
	sys, err := model.NewSystem(graph.Torus(4, 4), writersSpec(writers), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// testStepZeroAlloc drives a simulator past warmup and asserts that
// further steps perform no heap allocation.
func testStepZeroAlloc(t *testing.T, sys *model.System, sc model.Scheduler) {
	t.Helper()
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(5000)
	if avg := testing.AllocsPerRun(200, func() { sim.Step() }); avg != 0 {
		t.Fatalf("Simulator.Step allocates %v times per step after warmup, want 0", avg)
	}
}

func TestStepZeroAllocSynchronous(t *testing.T) {
	testStepZeroAlloc(t, coloringSystem(t, graph.Torus(4, 4)), sched.NewSynchronous())
}

func TestStepZeroAllocCentralRoundRobin(t *testing.T) {
	testStepZeroAlloc(t, coloringSystem(t, graph.Torus(4, 4)), sched.NewCentralRoundRobin())
}

// TestStepZeroAllocAllWriters: a synchronous step in which every process
// stages its communication row fills the staging array and the writer
// list to the brim, and neither grows.
func TestStepZeroAllocAllWriters(t *testing.T) {
	testStepZeroAlloc(t, writersSystem(t, 5), sched.NewSynchronous())
}

// TestStepZeroAllocDisabledReplay: a recorded BFS tree on a cycle under
// the central-random daemon, stepped to its fixed point without a
// silence check, so every selection is a disabled process served from its
// stepped verdict. Counting the replay, putting it on the due list and
// the settle that hands it to the recorder as Step returns allocate
// nothing.
func TestStepZeroAllocDisabledReplay(t *testing.T) {
	sys, err := engine.Build(graph.Cycle(16), engine.FamBFSTree, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(sys.N())
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sched.NewCentralRandom(1), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(5000)
	if en := sim.Tracker().AppendEnabled(nil); len(en) != 0 {
		t.Fatalf("processes %v still enabled after warmup", en)
	}
	before := rec.Report()
	const steps = 200
	if avg := testing.AllocsPerRun(steps, func() { sim.Step() }); avg != 0 {
		t.Fatalf("a replayed selection allocates %v times per step after warmup, want 0", avg)
	}
	// AllocsPerRun adds one warm-up call to the runs it counts.
	if got := rec.Report().DisabledSelections - before.DisabledSelections; got != steps+1 {
		t.Fatalf("the recorder saw %d disabled selections over %d steps", got, steps+1)
	}
}

// TestSilentSuffixZeroAlloc: once one suffix stretch has closed the
// processes' cycles, further stretches — selections counted on those
// cycles and the settles that hand them to the recorder — allocate
// nothing.
func TestSilentSuffixZeroAlloc(t *testing.T) {
	sim, rec := silentSystem(t, engine.FamMatching, "random-subset")
	rounds := 6 * sim.Sys().N()
	sim.RunRounds(rounds)
	avg := testing.AllocsPerRun(20, func() {
		rec.MarkSuffix()
		sim.RunRounds(rounds)
	})
	if avg != 0 {
		t.Fatalf("a silent suffix of %d rounds allocates %v times after warmup, want 0", rounds, avg)
	}
	if rep := rec.Report(); rep.SuffixRounds != rounds || rep.SuffixSelections == 0 {
		t.Fatalf("suffix report %+v: want %d suffix rounds with selections recorded", rep, rounds)
	}
}

func TestEnabledTrackerZeroAlloc(t *testing.T) {
	sys := coloringSystem(t, graph.Torus(4, 4))
	cfg := model.NewRandomConfig(sys, rng.New(3))
	tr := model.NewEnabledTracker(sys, cfg)
	buf := make([]int, 0, sys.N())
	avg := testing.AllocsPerRun(100, func() {
		tr.Reset(sys, cfg)
		buf = tr.AppendEnabled(buf[:0])
	})
	if avg != 0 {
		t.Fatalf("EnabledTracker full revalidation allocates %v times, want 0", avg)
	}
}

// oracleOnly hides a scheduler's SelectTracked method, forcing the
// simulator down the untracked path (a fresh tracker per Select).
type oracleOnly struct{ s model.Scheduler }

func (o oracleOnly) Name() string { return o.s.Name() }
func (o oracleOnly) Select(step int, sys *model.System, cfg *model.Config) []int {
	return o.s.Select(step, sys, cfg)
}

// TestTrackedSchedulersMatchOracle runs E1-class cells (Protocol COLORING
// on suite-style graphs, and MIS, whose processes fall disabled, on a
// grid, from adversarial initial configurations) twice per seed — once
// with the scheduler served by the simulator's incremental tracker, once
// with the same scheduler forced onto a tracker built from scratch per
// step — and asserts identical selections at every step and identical
// final configurations.
func TestTrackedSchedulersMatchOracle(t *testing.T) {
	schedulers := []func(seed uint64) model.Scheduler{
		func(seed uint64) model.Scheduler { return sched.NewEnabledBiased(seed) },
		func(uint64) model.Scheduler { return sched.NewLaziestFair() },
	}
	systems := injectionTestSystems(t)
	for _, sys := range systems {
		g := sys.Graph()
		for _, mk := range schedulers {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := model.NewRandomConfig(sys, rng.New(seed))

				tracked, err := model.NewSimulator(sys, cfg, mk(seed), seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := model.NewSimulator(sys, cfg, oracleOnly{mk(seed)}, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				name := mk(seed).Name()
				for step := 0; step < 300; step++ {
					a := tracked.Step()
					b := oracle.Step()
					if !intSlicesEqual(a, b) {
						t.Fatalf("%s on %s seed %d step %d: tracked selected %v, oracle %v",
							name, g.Name(), seed, step, a, b)
					}
				}
				if !tracked.Config().Equal(oracle.Config()) {
					t.Fatalf("%s on %s seed %d: configurations diverged", name, g.Name(), seed)
				}
			}
		}
	}
}

// TestConfigFlatLayout pins what the accessors promise over the flat
// storage: Clone preserves values and independence, and CommEqual sees a
// write made through SetComm.
func TestConfigFlatLayout(t *testing.T) {
	sys := coloringSystem(t, graph.Cycle(6))
	cfg := model.NewRandomConfig(sys, rng.New(5))
	cp := cfg.Clone()
	if !cp.Equal(cfg) {
		t.Fatal("clone differs from original")
	}
	cp.SetComm(3, 0, (cp.Comm(3, 0)+1)%(sys.Delta()+1))
	if cp.CommEqual(cfg) {
		t.Fatal("CommEqual missed a mutation through SetComm")
	}
	if cfg.Comm(3, 0) == cp.Comm(3, 0) {
		t.Fatal("clone shares backing storage with original")
	}
}

func TestEnabledSetNeverNil(t *testing.T) {
	// All-equal values under a copy protocol are a fixpoint: the enabled
	// set is empty, and the contract says empty, not nil.
	copySpec := &model.Spec{
		Name: "COPY",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:  "copy",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
	sys, err := model.NewSystem(graph.Cycle(4), copySpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys)
	set := ref.EnabledSet(sys, cfg)
	if set == nil {
		t.Fatal("ref.EnabledSet returned nil for a fixpoint, want empty non-nil slice")
	}
	if len(set) != 0 {
		t.Fatalf("EnabledSet = %v, want empty", set)
	}
}

func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ExampleEnabledTracker() {
	g := graph.Cycle(4)
	sys, _ := engine.Build(g, engine.FamColoring, nil)
	cfg := model.NewZeroConfig(sys) // monochromatic: every process enabled
	tr := model.NewEnabledTracker(sys, cfg)
	fmt.Println(tr.AppendEnabled(nil))
	// Output: [0 1 2 3]
}
