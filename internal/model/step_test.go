package model_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

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

// TestDrawnTransitionsAreNeverCounted: a transition whose Apply drew
// randomness is one sample, not a function of the process's internal
// row, so evalSelected never feeds it to a cycle detector, not even in a
// silent phase, where every neighborhood is frozen and every other
// transition is fed. A detector fed drawn transitions could close a
// cycle on them and repeat drawn outcomes where an evaluation redraws,
// so the reference simulator, which evaluates every selection, is the
// other side: both must walk through the same configurations and leave
// the same recorder report.
func TestDrawnTransitionsAreNeverCounted(t *testing.T) {
	t.Parallel()
	sys, err := model.NewSystem(graph.Cycle(6), rerollSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 2009
	initial := model.NewRandomConfig(sys, rng.New(seed))
	simRec, refRec := trace.NewRecorder(sys.N()), trace.NewRecorder(sys.N())
	sim, err := model.NewSimulator(sys, initial, sched.NewRandomSubset(seed), seed, simRec)
	if err != nil {
		t.Fatal(err)
	}
	naive := ref.NewSim(sys, initial, sched.NewRandomSubset(seed), seed, refRec)
	for step := 0; step < 300; step++ {
		if silent, err := sim.SilentNow(); err != nil || !silent {
			t.Fatalf("step %d: SilentNow = (%v, %v), want silent: every step of this run is in the silent phase", step, silent, err)
		}
		sim.Step()
		naive.Step()
		if !sim.Config().Equal(naive.Config()) {
			t.Fatalf("step %d: the simulator counted a drawn transition:\n simulator %v\n reference %v",
				step, internals(sys, sim.Config()), internals(sys, naive.Config()))
		}
	}
	if got, want := simRec.Report(), refRec.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorder reports differ:\n simulator %+v\n reference %+v", got, want)
	}
}

// eventLog forwards every observer call to the recorder it wraps and
// keeps the Selected and CommWrite calls made since the last take, so
// two engines can be compared call for call.
type eventLog struct {
	model.Observer
	selected map[string]int // Selected aggregate → selections it stands for
	writes   []string
}

func (l *eventLog) Selected(step, p int, neighbors []int, bits, fired, times int) {
	l.Observer.Selected(step, p, neighbors, bits, fired, times)
	if l.selected == nil {
		l.selected = map[string]int{}
	}
	l.selected[fmt.Sprintf("p%d read %v (%d bits) fired %d", p, neighbors, bits, fired)] += times
}

func (l *eventLog) CommWrite(step, p, v, old, new int) {
	l.Observer.CommWrite(step, p, v, old, new)
	l.writes = append(l.writes, fmt.Sprintf("step %d: p%d v%d %d->%d", step, p, v, old, new))
}

// take returns and forgets the logged calls: the CommWrite stream in
// call order, and each distinct Selected aggregate with the number of
// selections it stood for. The tally is the same whether a selection was
// reported as it was evaluated or in a counted replay batch when the
// stepping method returned (which carries a later step number: the log
// leaves the step out).
func (l *eventLog) take() (selected map[string]int, writes []string) {
	selected, writes = l.selected, l.writes
	l.selected, l.writes = nil, nil
	return selected, writes
}

// Variables of stagingSpec, and its actions in priority order.
const (
	stX, stY   = 0, 1 // communication
	stCur, stT = 0, 1 // internal

	stBoot, stRaise, stReassert, stAdvance, stIdle, stWrap = 0, 1, 2, 3, 4, 5
)

// stagingSpec is a protocol built to put every kind of own-state write
// in front of the step engine. X climbs to the largest X a process sees
// behind its scanning pointer cur, so every run ends silent; until then,
// and along the internal orbit of the silent phase, the actions are
//
//	boot      Y = 0: sets Y. From an all-zero Y every process of a
//	          synchronous step writes communication state.
//	raise     writes X twice, first to the value it holds.
//	reassert  writes X to the value it holds: a staged row, no change,
//	          no CommWrite. Also steps t.
//	advance   writes t, reads it back and moves cur by it.
//	idle      fires and writes nothing (every third process parks here).
//	wrap      one internal write.
func stagingSpec() *model.Spec {
	behindCur := func(c *model.Ctx) int { return c.NeighborComm(c.Internal(stCur)+1, stX) }
	return &model.Spec{
		Name: "STAGING",
		Comm: []model.VarSpec{
			{Name: "X", Domain: model.FixedDomain(4)},
			{Name: "Y", Domain: model.FixedDomain(2)},
		},
		Internal: []model.VarSpec{
			{Name: "cur", Domain: func(i model.DomainInfo) int { return i.Degree }},
			{Name: "t", Domain: model.FixedDomain(3)},
		},
		Actions: []model.Action{
			stBoot: {Name: "boot",
				Guard: func(c *model.Ctx) bool { return c.Comm(stY) == 0 },
				Apply: func(c *model.Ctx) { c.SetComm(stY, 1) }},
			stRaise: {Name: "raise",
				Guard: func(c *model.Ctx) bool { return behindCur(c) > c.Comm(stX) },
				Apply: func(c *model.Ctx) {
					c.SetComm(stX, c.Comm(stX))
					c.SetComm(stX, behindCur(c))
				}},
			stReassert: {Name: "reassert",
				Guard: func(c *model.Ctx) bool { return c.Internal(stT) == 0 },
				Apply: func(c *model.Ctx) {
					c.SetComm(stX, c.Comm(stX))
					c.SetInternal(stT, 1)
				}},
			stAdvance: {Name: "advance",
				Guard: func(c *model.Ctx) bool { return c.Internal(stT) == 1 },
				Apply: func(c *model.Ctx) {
					c.SetInternal(stT, 2)
					c.SetInternal(stCur, (c.Internal(stCur)+c.Internal(stT)-1)%c.Deg())
				}},
			stIdle: {Name: "idle",
				Guard: func(c *model.Ctx) bool { return c.P()%3 == 0 },
				Apply: func(c *model.Ctx) {}},
			stWrap: {Name: "wrap",
				Guard: func(c *model.Ctx) bool { return true },
				Apply: func(c *model.Ctx) { c.SetInternal(stT, 0) }},
		},
	}
}

// referenceCase is one system of TestStepMatchesReference and the way
// its initial configuration is drawn.
type referenceCase struct {
	name    string
	sys     *model.System
	initial func(seed uint64) *model.Config
}

// referenceCases lists the real protocols of the injection tests, the
// staging protocol (started from Y = 0 everywhere) and the transformer's
// cached-view MIS, whose actions run against wide internal rows; the
// last two on a static graph and on a MutableCopy.
func referenceCases(t *testing.T) []referenceCase {
	t.Helper()
	random := func(sys *model.System) func(uint64) *model.Config {
		return func(seed uint64) *model.Config { return model.NewRandomConfig(sys, rng.New(seed)) }
	}
	var cases []referenceCase
	for i, sys := range injectionTestSystems(t) {
		cases = append(cases, referenceCase{fmt.Sprintf("injection system %d", i), sys, random(sys)})
	}
	staging, err := model.NewSystem(graph.RandomConnectedGNP(12, 0.25, rng.New(3)), stagingSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := engine.Build(graph.Grid(3, 3), engine.FamMISXform, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*model.System{staging, staging.MutableCopy()} {
		cases = append(cases, referenceCase{"staging", sys, func(seed uint64) *model.Config {
			cfg := model.NewRandomConfig(sys, rng.New(seed))
			for p := range cfg.N() {
				cfg.SetComm(p, stY, 0)
			}
			return cfg
		}})
	}
	for _, sys := range []*model.System{cached, cached.MutableCopy()} {
		cases = append(cases, referenceCase{"cached-view MIS", sys, random(sys)})
	}
	return cases
}

// TestStepMatchesReference holds Simulator.Step — one context, internal
// rows written in place, communication rows staged on first write, folded
// reads, counts on closed cycles and disabled replays, injections
// through MarkDirty — to the reference simulator: same configuration,
// same Selected calls (so the same fired vector) and same CommWrite
// stream after every step through convergence, a marked suffix whose
// selections are counted on their processes' closed cycles, and a
// mid-suffix corruption (on a MutableCopy a crash as well) that makes
// the corrupted processes and their neighbors forget their cycles and
// forces a second convergence. The recorder
// report is compared wherever the simulator's caller could look at it:
// after every bare Step of the marked suffix, after a RunRounds stretch
// (whose replays are handed over in one batch as it returns), after the
// MarkDirty that ends the stretch, and at the end.
func TestStepMatchesReference(t *testing.T) {
	t.Parallel()
	scheds := []func(seed uint64) model.Scheduler{
		func(seed uint64) model.Scheduler { return sched.NewRandomSubset(seed) },
		func(uint64) model.Scheduler { return sched.NewSynchronous() },
		func(uint64) model.Scheduler { return sched.NewCentralRoundRobin() },
	}
	const synchronous = 1
	stagingFired := make([]int, len(stagingSpec().Actions))
	for _, tc := range referenceCases(t) {
		for ki, mk := range scheds {
			const seed = 7
			sys := tc.sys
			if sys.Dynamic() {
				sys.ResetDynamic() // the previous daemon's run ended with a crash
			}
			initial := tc.initial(seed)
			simRec, refRec := trace.NewRecorder(sys.N()), trace.NewRecorder(sys.N())
			simLog, refLog := &eventLog{Observer: simRec}, &eventLog{Observer: refRec}
			sim, err := model.NewSimulator(sys, initial, mk(seed), seed, simLog)
			if err != nil {
				t.Fatal(err)
			}
			naive := ref.NewSim(sys, initial, mk(seed), seed, refLog)
			fatalf := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s (dynamic %v) sched %d step %d: %s",
					tc.name, sys.Dynamic(), ki, sim.Steps(), fmt.Sprintf(format, args...))
			}
			sameReports := func(when string) {
				t.Helper()
				if got, want := simRec.Report(), refRec.Report(); !reflect.DeepEqual(got, want) {
					fatalf("%s: recorder reports differ:\n simulator %+v\n reference %+v", when, got, want)
				}
			}
			// step advances both engines by one step and compares
			// everything they produced.
			step := func() {
				t.Helper()
				sim.Step()
				naive.Step()
				if !sim.Config().Equal(naive.Config()) {
					fatalf("configurations diverged")
				}
				simSel, simWrites := simLog.take()
				refSel, refWrites := refLog.take()
				if !maps.Equal(simSel, refSel) {
					fatalf("Selected calls differ:\n simulator %v\n reference %v", simSel, refSel)
				}
				if !slices.Equal(simWrites, refWrites) {
					fatalf("CommWrite streams differ:\n simulator %v\n reference %v", simWrites, refWrites)
				}
				if tc.name == "staging" {
					if sim.Steps() == 1 && ki == synchronous && len(simWrites) != sys.N() {
						fatalf("%d CommWrite calls, want one per process: the step that fills the staging array", len(simWrites))
					}
					for _, f := range naive.Fired() {
						if f >= 0 {
							stagingFired[f]++
						}
					}
				}
			}
			// converge steps until the simulator reports silence, so the
			// steps after it are the silent phase.
			converge := func() {
				t.Helper()
				for {
					silent, err := sim.SilentNow()
					if err != nil {
						t.Fatal(err)
					}
					if silent {
						return
					}
					if sim.Steps() > 20000 {
						fatalf("no silence")
					}
					step()
				}
			}
			lockstep := func(steps int, everyStep bool) {
				t.Helper()
				for i := 0; i < steps; i++ {
					if _, err := sim.SilentNow(); err != nil {
						t.Fatal(err)
					}
					step()
					if everyStep {
						sameReports("after a bare Step")
					}
				}
			}
			lockstep(50, false)
			converge()
			simRec.MarkSuffix()
			refRec.MarkSuffix()
			lockstep(60, true)
			// A stretch the simulator runs on its own: the selections are
			// counted per process and delivered, per transition of each
			// cycle, when RunRounds returns.
			from := sim.Steps()
			sim.RunRounds(3)
			for naive.Steps() < sim.Steps() {
				naive.Step()
			}
			if !sim.Config().Equal(naive.Config()) {
				fatalf("configurations diverged over RunRounds from step %d", from)
			}
			if _, writes := simLog.take(); len(writes) != 0 {
				fatalf("a silent stretch wrote communication state: %v", writes)
			}
			refLog.take()
			sameReports("after RunRounds")
			// The same corruption and crash on both sides; only the
			// simulator has caches to repair.
			corruptRandom(sim, 2, rng.New(seed))
			r := rng.New(seed)
			for range 2 {
				naive.Corrupt(r.Intn(sys.N()), r)
			}
			if sys.Dynamic() {
				crash := model.TopologyEvent{Kind: model.TopoCrash, U: 1}
				sim.ApplyTopology(crash, nil)
				naive.ApplyTopology(crash)
			}
			sameReports("after MarkDirty")
			converge()
			lockstep(60, false)
			sameReports("at the end")
		}
	}
	for a, n := range stagingFired {
		if n == 0 {
			t.Errorf("staging action %d never fired: the case it was written for is not covered", a)
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
