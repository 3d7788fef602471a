package model_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
)

// copySpec is a toy deterministic protocol: X.p ≠ X.(port 1) → X.p ← X.(port 1).
func copySpec() *model.Spec {
	return &model.Spec{
		Name: "COPY",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(10)}},
		Actions: []model.Action{{
			Name:  "copy",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
}

// scanSpec rotates an internal pointer forever without writing comm.
func scanSpec() *model.Spec {
	return &model.Spec{
		Name:     "SCAN",
		Comm:     []model.VarSpec{{Name: "X", Domain: model.FixedDomain(3)}},
		Internal: []model.VarSpec{{Name: "cur", Domain: func(i model.DomainInfo) int { return i.Degree }}},
		Actions: []model.Action{{
			Name:  "scan",
			Guard: func(c *model.Ctx) bool { _ = c.NeighborComm(c.Internal(0)+1, 0); return true },
			Apply: func(c *model.Ctx) { c.SetInternal(0, (c.Internal(0)+1)%c.Deg()) },
		}},
	}
}

func mustSystem(t *testing.T, g *graph.Graph, spec *model.Spec, consts [][]int) *model.System {
	t.Helper()
	sys, err := model.NewSystem(g, spec, consts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec *model.Spec
	}{
		{"empty name", &model.Spec{Actions: []model.Action{{Guard: func(*model.Ctx) bool { return false }, Apply: func(*model.Ctx) {}}}}},
		{"no actions", &model.Spec{Name: "X"}},
		{"nil guard", &model.Spec{Name: "X", Actions: []model.Action{{Apply: func(*model.Ctx) {}}}}},
		{"unnamed var", &model.Spec{Name: "X", Comm: []model.VarSpec{{Domain: model.FixedDomain(2)}},
			Actions: []model.Action{{Guard: func(*model.Ctx) bool { return false }, Apply: func(*model.Ctx) {}}}}},
		{"nil domain", &model.Spec{Name: "X", Comm: []model.VarSpec{{Name: "v"}},
			Actions: []model.Action{{Guard: func(*model.Ctx) bool { return false }, Apply: func(*model.Ctx) {}}}}},
		{"dup var", &model.Spec{Name: "X",
			Comm:     []model.VarSpec{{Name: "v", Domain: model.FixedDomain(2)}},
			Internal: []model.VarSpec{{Name: "v", Domain: model.FixedDomain(2)}},
			Actions:  []model.Action{{Guard: func(*model.Ctx) bool { return false }, Apply: func(*model.Ctx) {}}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
	if err := copySpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for domain, want := range cases {
		if got := model.BitsFor(domain); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", domain, got, want)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	spec := copySpec()
	if _, err := model.NewSystem(graph.Path(1), spec, nil); err == nil {
		t.Error("single-process system accepted")
	}
	b := graph.NewBuilder(4, "disc")
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	if _, err := model.NewSystem(b.Build(), spec, nil); err == nil {
		t.Error("disconnected system accepted")
	}
	constSpec := &model.Spec{
		Name:    "K",
		Comm:    []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
		Const:   []model.VarSpec{{Name: "C", Domain: model.FixedDomain(3)}},
		Actions: spec.Actions,
	}
	if _, err := model.NewSystem(graph.Path(3), constSpec, nil); err == nil {
		t.Error("missing consts accepted")
	}
	if _, err := model.NewSystem(graph.Path(3), constSpec, [][]int{{0}, {5}, {1}}); err == nil {
		t.Error("out-of-domain const accepted")
	}
	if _, err := model.NewSystem(graph.Path(3), constSpec, [][]int{{0}, {1}, {2}}); err != nil {
		t.Errorf("valid consts rejected: %v", err)
	}
}

func TestSnapshotSemantics(t *testing.T) {
	// On a 2-path with X = (0, 1), a synchronous step must *swap* the
	// values: both processes read the pre-step configuration.
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(1, 0, 1)
	ref.Step(sys, cfg, []int{0, 1}, 0, nil, nil)
	if cfg.Comm(0, 0) != 1 || cfg.Comm(1, 0) != 0 {
		t.Fatalf("snapshot semantics violated: got (%d,%d), want (1,0)",
			cfg.Comm(0, 0), cfg.Comm(1, 0))
	}
}

func TestActionPriority(t *testing.T) {
	spec := &model.Spec{
		Name: "PRIO",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(5)}},
		Actions: []model.Action{
			{Name: "first", Guard: func(c *model.Ctx) bool { return true },
				Apply: func(c *model.Ctx) { c.SetComm(0, 1) }},
			{Name: "second", Guard: func(c *model.Ctx) bool { return true },
				Apply: func(c *model.Ctx) { c.SetComm(0, 2) }},
		},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	cfg := model.NewZeroConfig(sys)
	fired := ref.Step(sys, cfg, []int{0}, 0, nil, nil)
	if fired[0] != 0 {
		t.Fatalf("fired action %d, want 0 (priority order)", fired[0])
	}
	if cfg.Comm(0, 0) != 1 {
		t.Fatalf("X = %d, want 1", cfg.Comm(0, 0))
	}
}

func TestDisabledSelectedProcess(t *testing.T) {
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	cfg := model.NewZeroConfig(sys) // X equal everywhere: everyone disabled
	before := cfg.Clone()
	fired := ref.Step(sys, cfg, []int{0, 1}, 0, nil, nil)
	if fired[0] != -1 || fired[1] != -1 {
		t.Fatalf("fired = %v, want [-1 -1]", fired)
	}
	if !cfg.Equal(before) {
		t.Fatal("configuration changed by disabled processes")
	}
}

func TestEnabledSet(t *testing.T) {
	sys := mustSystem(t, graph.Path(3), copySpec(), nil)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(2, 0, 3)
	// Port 1 of p0 is p1 (X=0): disabled. p1's port 1 is p0 (X=0): disabled.
	// p2's port 1 is p1 (X=0 != 3): enabled.
	enabled := ref.EnabledSet(sys, cfg)
	if len(enabled) != 1 || enabled[0] != 2 {
		t.Fatalf("EnabledSet = %v, want [2]", enabled)
	}
	if a := model.NewEnabledTracker(sys, cfg).EnabledAction(2); a != 0 {
		t.Fatalf("tracker: p2 fires action %d, want 0", a)
	}
}

// TestRandPanicsInGuard pins where randomness is refused and what the
// panic says: in a guard on every context, and in an Apply that runs
// without a generator, which only an action not marked Randomized meets
// in the orbit walker (there as the silence check's error).
func TestRandPanicsInGuard(t *testing.T) {
	const (
		inGuard     = "model: randomness is only available inside Apply"
		unmarked    = "model: Rand with no generator: the action draws but is not marked Randomized"
		guardDraws  = "guard draws"
		unmarkedRnd = "unmarked apply draws"
	)
	specs := map[string]*model.Spec{
		guardDraws: {
			Name: "BADRAND",
			Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
			Actions: []model.Action{{
				Name:  "bad",
				Guard: func(c *model.Ctx) bool { return c.Rand(2) == 0 },
				Apply: func(c *model.Ctx) {},
			}},
		},
		unmarkedRnd: {
			Name: "UNMARKED",
			Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
			Actions: []model.Action{{
				Name:  "draw",
				Guard: func(c *model.Ctx) bool { return true },
				Apply: func(c *model.Ctx) { c.SetComm(0, c.Rand(2)) },
			}},
		},
	}
	gen := func(int) *rng.Rand { return rng.New(1) }
	for _, tc := range []struct {
		name, spec, want string
		run              func(sys *model.System, cfg *model.Config) error
	}{
		{"guard, ref.Step", guardDraws, inGuard, func(sys *model.System, cfg *model.Config) error {
			ref.Step(sys, cfg, []int{0}, 0, gen, nil)
			return nil
		}},
		{"guard, Simulator.Step", guardDraws, inGuard, func(sys *model.System, cfg *model.Config) error {
			sim, err := model.NewSimulator(sys, cfg, roundRobin{}, 1, nil)
			if err == nil {
				sim.Step()
			}
			return err
		}},
		{"apply without a generator, ref.Step", unmarkedRnd, unmarked, func(sys *model.System, cfg *model.Config) error {
			ref.Step(sys, cfg, []int{0}, 0, nil, nil)
			return nil
		}},
		{"apply in the orbit walker", unmarkedRnd, "model: silence check at process 0: apply panicked: " + unmarked,
			func(sys *model.System, cfg *model.Config) error {
				_, err := model.CommSilent(sys, cfg)
				return err
			}},
	} {
		sys := mustSystem(t, graph.Path(2), specs[tc.spec], nil)
		var got string
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					got = fmt.Sprint(rec)
				}
			}()
			if err := tc.run(sys, model.NewZeroConfig(sys)); err != nil {
				got = err.Error()
			}
		}()
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestGuardWriteRefused: a guard is a predicate. One that writes own
// state, communication or internal, panics on every context that can
// evaluate it — the arena's, the reference step's, the tracker's probe,
// the orbit walker's and SilentNow's — and the configuration is left as
// it was.
func TestGuardWriteRefused(t *testing.T) {
	writes := map[string]func(c *model.Ctx){
		"SetComm":     func(c *model.Ctx) { c.SetComm(0, 1) },
		"SetInternal": func(c *model.Ctx) { c.SetInternal(0, 1) },
	}
	for name, write := range writes {
		spec := &model.Spec{
			Name:     "BADGUARD",
			Comm:     []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
			Internal: []model.VarSpec{{Name: "y", Domain: model.FixedDomain(2)}},
			Actions: []model.Action{{
				Name:  "bad",
				Guard: func(c *model.Ctx) bool { write(c); return false },
				Apply: func(c *model.Ctx) {},
			}},
		}
		sys := mustSystem(t, graph.Path(2), spec, nil)
		sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), roundRobin{}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := model.NewZeroConfig(sys)
		entries := map[string]func(){
			"Simulator.Step": func() { sim.Step() },
			"ref.Step":       func() { ref.Step(sys, cfg, []int{0}, 0, nil, nil) },
			"EnabledTracker": func() { model.NewEnabledTracker(sys, cfg).EnabledAction(0) },
			"CommSilent":     func() { _, _ = model.CommSilent(sys, cfg) },
			"SilentNow":      func() { _, _ = sim.SilentNow() },
		}
		for entry, run := range entries {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "only writable inside Apply") {
						t.Errorf("%s in a guard through %s: recovered %q, want the own-state panic", name, entry, msg)
					}
				}()
				run()
			}()
		}
		if !sim.Config().Equal(cfg) || !cfg.Equal(model.NewZeroConfig(sys)) {
			t.Errorf("%s in a guard changed a configuration", name)
		}
	}
}

func TestSetCommDomainEnforced(t *testing.T) {
	spec := &model.Spec{
		Name: "OOB",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
		Actions: []model.Action{{
			Name:  "oob",
			Guard: func(c *model.Ctx) bool { return true },
			Apply: func(c *model.Ctx) { c.SetComm(0, 7) },
		}},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	cfg := model.NewZeroConfig(sys)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain write did not panic")
		}
	}()
	ref.Step(sys, cfg, []int{0}, 0, nil, nil)
}

func TestConfigCloneEqualValidate(t *testing.T) {
	sys := mustSystem(t, graph.Path(3), copySpec(), nil)
	cfg := model.NewRandomConfig(sys, rng.New(3))
	if err := cfg.Validate(sys); err != nil {
		t.Fatal(err)
	}
	cp := cfg.Clone()
	if !cp.Equal(cfg) || !cp.CommEqual(cfg) {
		t.Fatal("clone not equal")
	}
	cp.SetComm(0, 0, (cp.Comm(0, 0)+1)%10)
	if cp.Equal(cfg) || cp.CommEqual(cfg) {
		t.Fatal("mutated clone still equal")
	}
	bad := cfg.Clone()
	bad.SetComm(1, 0, 99)
	if err := bad.Validate(sys); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestConfigAccessorBounds: a process's variables sit beside the next
// process's in one flat array, so an index outside the row or a process
// outside [0, n) must stop on a bound in each accessor and never reach a
// neighboring row.
func TestConfigAccessorBounds(t *testing.T) {
	nop := model.Action{Name: "nop", Guard: func(*model.Ctx) bool { return false }, Apply: func(*model.Ctx) {}}
	spec := &model.Spec{
		Name:     "WIDE",
		Comm:     []model.VarSpec{{Name: "A", Domain: model.FixedDomain(4)}, {Name: "B", Domain: model.FixedDomain(4)}},
		Internal: []model.VarSpec{{Name: "I", Domain: model.FixedDomain(4)}},
		Actions:  []model.Action{nop},
	}
	sys := mustSystem(t, graph.Path(3), spec, nil)
	cfg := model.NewZeroConfig(sys)
	n := cfg.N()
	if n != 3 {
		t.Fatalf("N() = %d, want 3", n)
	}
	for _, a := range []struct {
		name  string
		width int
		call  func(p, v int)
	}{
		{"Comm", sys.CommWidth(), func(p, v int) { cfg.Comm(p, v) }},
		{"SetComm", sys.CommWidth(), func(p, v int) { cfg.SetComm(p, v, 1) }},
		{"Internal", sys.InternalWidth(), func(p, v int) { cfg.Internal(p, v) }},
		{"SetInternal", sys.InternalWidth(), func(p, v int) { cfg.SetInternal(p, v, 1) }},
	} {
		for _, at := range [][2]int{{1, -1}, {1, a.width}, {-1, 0}, {n, 0}} {
			if !panics(func() { a.call(at[0], at[1]) }) {
				t.Errorf("%s(p=%d, v=%d) did not panic (n=%d, width=%d)", a.name, at[0], at[1], n, a.width)
			}
		}
	}
	if !cfg.Equal(model.NewZeroConfig(sys)) {
		t.Fatal("a rejected write landed somewhere")
	}
	cfg.SetComm(1, sys.CommWidth()-1, 3)
	cfg.SetInternal(1, sys.InternalWidth()-1, 3)
	for v := range sys.CommWidth() {
		if got := cfg.Comm(2, v); got != 0 {
			t.Errorf("SetComm on the last variable of process 1 wrote comm %d of process 2 (= %d)", v, got)
		}
	}
	if got := cfg.Internal(2, 0); got != 0 {
		t.Errorf("SetInternal on the last variable of process 1 wrote process 2 (= %d)", got)
	}

	bare := mustSystem(t, graph.Path(3), &model.Spec{
		Name:    "BARE",
		Comm:    []model.VarSpec{{Name: "A", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{nop},
	}, nil)
	if !panics(func() { model.NewZeroConfig(bare).Internal(1, 0) }) {
		t.Error("Internal(1, 0) on a system without internal variables did not panic")
	}
}

func TestRandomConfigDeterministic(t *testing.T) {
	sys := mustSystem(t, graph.Cycle(6), copySpec(), nil)
	a := model.NewRandomConfig(sys, rng.New(7))
	b := model.NewRandomConfig(sys, rng.New(7))
	if !a.Equal(b) {
		t.Fatal("NewRandomConfig not deterministic in seed")
	}
}

type roundRobin struct{}

func (roundRobin) Name() string { return "rr" }
func (roundRobin) Select(step int, sys *model.System, _ *model.Config) []int {
	return []int{step % sys.N()}
}

// roundLog is an Observer that keeps the step at which each round
// completed, as StepEnd reports it.
type roundLog struct{ Ends []int }

func (*roundLog) StepBegin(int, int)                      {}
func (*roundLog) Selected(int, int, []int, int, int, int) {}
func (*roundLog) CommWrite(int, int, int, int, int)       {}
func (l *roundLog) StepEnd(step, _ int, roundCompleted bool) {
	if roundCompleted {
		l.Ends = append(l.Ends, step)
	}
}

func TestRoundTracking(t *testing.T) {
	sys := mustSystem(t, graph.Path(3), copySpec(), nil)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, 5)
	log := &roundLog{}
	sim, err := model.NewSimulator(sys, cfg, roundRobin{}, 1, log)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(7)
	// The simulator runs on a copy: the caller's configuration is untouched.
	if sim.Config().Comm(0, 0) != 0 || cfg.Comm(0, 0) != 5 {
		t.Fatalf("p0 holds %d in the run and %d in the caller's configuration, want 0 and 5",
			sim.Config().Comm(0, 0), cfg.Comm(0, 0))
	}
	// Selections 0,1,2 complete round 1 at step 2; 3,4,5 complete round 2
	// at step 5; step 6 is mid-round.
	if sim.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", sim.Rounds())
	}
	if rb := log.Ends; len(rb) != 2 || rb[0] != 2 || rb[1] != 5 {
		t.Fatalf("round boundaries = %v, want [2 5]", rb)
	}
	if sim.Steps() != 7 {
		t.Fatalf("steps = %d", sim.Steps())
	}
}

func TestCommSilent(t *testing.T) {
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	eq := model.NewZeroConfig(sys)
	silent, err := model.CommSilent(sys, eq)
	if err != nil || !silent {
		t.Fatalf("equal-values config not silent: %v %v", silent, err)
	}
	diff := model.NewZeroConfig(sys)
	diff.SetComm(1, 0, 1)
	silent, err = model.CommSilent(sys, diff)
	if err != nil || silent {
		t.Fatalf("conflicting config reported silent: %v %v", silent, err)
	}
}

func TestCommSilentWithRotatingInternal(t *testing.T) {
	// A protocol whose internal pointer rotates forever but never writes
	// comm is silent in every configuration: the orbit closes.
	sys := mustSystem(t, graph.Cycle(4), scanSpec(), nil)
	cfg := model.NewRandomConfig(sys, rng.New(9))
	silent, err := model.CommSilent(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !silent {
		t.Fatal("scanner protocol should be silent everywhere")
	}
}

func TestCommSilentRandomizedBreaks(t *testing.T) {
	spec := &model.Spec{
		Name: "RND",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:       "rnd",
			Guard:      func(c *model.Ctx) bool { return c.Comm(0) == c.NeighborComm(1, 0) },
			Apply:      func(c *model.Ctx) { c.SetComm(0, c.Rand(4)) },
			Randomized: true,
		}},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	conflict := model.NewZeroConfig(sys) // equal values: randomized action enabled
	silent, err := model.CommSilent(sys, conflict)
	if err != nil || silent {
		t.Fatalf("enabled randomized action should break silence: %v %v", silent, err)
	}
	ok := model.NewZeroConfig(sys)
	ok.SetComm(1, 0, 2)
	silent, err = model.CommSilent(sys, ok)
	if err != nil || !silent {
		t.Fatalf("disabled randomized protocol should be silent: %v %v", silent, err)
	}
}

func TestSimulatorRejectsInvalidConfig(t *testing.T) {
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	bad := model.NewZeroConfig(sys)
	bad.SetComm(0, 0, 99)
	if _, err := model.NewSimulator(sys, bad, roundRobin{}, 1, nil); err == nil {
		t.Fatal("invalid initial configuration accepted")
	}
}

func TestRunUntilSilent(t *testing.T) {
	sys := mustSystem(t, graph.Path(4), copySpec(), nil)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(3, 0, 2)
	sim, err := model.NewSimulator(sys, cfg, roundRobin{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := sim.RunUntilSilent(10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !silent {
		t.Fatal("copy protocol did not reach silence")
	}
	// At silence all values along port-1 chains are equal; verify fixpoint.
	if got, err := model.CommSilent(sys, sim.Config()); err != nil || !got {
		t.Fatal("final configuration not silent")
	}
}
