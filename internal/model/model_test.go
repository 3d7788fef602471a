package model

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// copySpec is a toy deterministic protocol: X.p ≠ X.(port 1) → X.p ← X.(port 1).
func copySpec() *Spec {
	return &Spec{
		Name: "COPY",
		Comm: []VarSpec{{Name: "X", Domain: FixedDomain(10)}},
		Actions: []Action{{
			Name:  "copy",
			Guard: func(c *Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
}

// scanSpec rotates an internal pointer forever without writing comm.
func scanSpec() *Spec {
	return &Spec{
		Name:     "SCAN",
		Comm:     []VarSpec{{Name: "X", Domain: FixedDomain(3)}},
		Internal: []VarSpec{{Name: "cur", Domain: func(i DomainInfo) int { return i.Degree }}},
		Actions: []Action{{
			Name:  "scan",
			Guard: func(c *Ctx) bool { _ = c.NeighborComm(c.Internal(0)+1, 0); return true },
			Apply: func(c *Ctx) { c.SetInternal(0, (c.Internal(0)+1)%c.Deg()) },
		}},
	}
}

func mustSystem(t *testing.T, g *graph.Graph, spec *Spec, consts [][]int) *System {
	t.Helper()
	sys, err := NewSystem(g, spec, consts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
	}{
		{"empty name", &Spec{Actions: []Action{{Guard: func(*Ctx) bool { return false }, Apply: func(*Ctx) {}}}}},
		{"no actions", &Spec{Name: "X"}},
		{"nil guard", &Spec{Name: "X", Actions: []Action{{Apply: func(*Ctx) {}}}}},
		{"unnamed var", &Spec{Name: "X", Comm: []VarSpec{{Domain: FixedDomain(2)}},
			Actions: []Action{{Guard: func(*Ctx) bool { return false }, Apply: func(*Ctx) {}}}}},
		{"nil domain", &Spec{Name: "X", Comm: []VarSpec{{Name: "v"}},
			Actions: []Action{{Guard: func(*Ctx) bool { return false }, Apply: func(*Ctx) {}}}}},
		{"dup var", &Spec{Name: "X",
			Comm:     []VarSpec{{Name: "v", Domain: FixedDomain(2)}},
			Internal: []VarSpec{{Name: "v", Domain: FixedDomain(2)}},
			Actions:  []Action{{Guard: func(*Ctx) bool { return false }, Apply: func(*Ctx) {}}}}},
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
		if got := BitsFor(domain); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", domain, got, want)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	spec := copySpec()
	if _, err := NewSystem(graph.Path(1), spec, nil); err == nil {
		t.Error("single-process system accepted")
	}
	b := graph.NewBuilder(4, "disc")
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	if _, err := NewSystem(b.Build(), spec, nil); err == nil {
		t.Error("disconnected system accepted")
	}
	constSpec := &Spec{
		Name:    "K",
		Comm:    []VarSpec{{Name: "X", Domain: FixedDomain(2)}},
		Const:   []VarSpec{{Name: "C", Domain: FixedDomain(3)}},
		Actions: spec.Actions,
	}
	if _, err := NewSystem(graph.Path(3), constSpec, nil); err == nil {
		t.Error("missing consts accepted")
	}
	if _, err := NewSystem(graph.Path(3), constSpec, [][]int{{0}, {5}, {1}}); err == nil {
		t.Error("out-of-domain const accepted")
	}
	if _, err := NewSystem(graph.Path(3), constSpec, [][]int{{0}, {1}, {2}}); err != nil {
		t.Errorf("valid consts rejected: %v", err)
	}
}

func TestSnapshotSemantics(t *testing.T) {
	// On a 2-path with X = (0, 1), a synchronous step must *swap* the
	// values: both processes read the pre-step configuration.
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	cfg := NewZeroConfig(sys)
	cfg.SetComm(1, 0, 1)
	ExecuteStep(sys, cfg, []int{0, 1}, 0, nil, nil)
	if cfg.Comm(0, 0) != 1 || cfg.Comm(1, 0) != 0 {
		t.Fatalf("snapshot semantics violated: got (%d,%d), want (1,0)",
			cfg.Comm(0, 0), cfg.Comm(1, 0))
	}
}

func TestActionPriority(t *testing.T) {
	spec := &Spec{
		Name: "PRIO",
		Comm: []VarSpec{{Name: "X", Domain: FixedDomain(5)}},
		Actions: []Action{
			{Name: "first", Guard: func(c *Ctx) bool { return true },
				Apply: func(c *Ctx) { c.SetComm(0, 1) }},
			{Name: "second", Guard: func(c *Ctx) bool { return true },
				Apply: func(c *Ctx) { c.SetComm(0, 2) }},
		},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	cfg := NewZeroConfig(sys)
	fired := ExecuteStep(sys, cfg, []int{0}, 0, nil, nil)
	if fired[0] != 0 {
		t.Fatalf("fired action %d, want 0 (priority order)", fired[0])
	}
	if cfg.Comm(0, 0) != 1 {
		t.Fatalf("X = %d, want 1", cfg.Comm(0, 0))
	}
}

func TestDisabledSelectedProcess(t *testing.T) {
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	cfg := NewZeroConfig(sys) // X equal everywhere: everyone disabled
	before := cfg.Clone()
	fired := ExecuteStep(sys, cfg, []int{0, 1}, 0, nil, nil)
	if fired[0] != -1 || fired[1] != -1 {
		t.Fatalf("fired = %v, want [-1 -1]", fired)
	}
	if !cfg.Equal(before) {
		t.Fatal("configuration changed by disabled processes")
	}
}

func TestEnabledSet(t *testing.T) {
	sys := mustSystem(t, graph.Path(3), copySpec(), nil)
	cfg := NewZeroConfig(sys)
	cfg.SetComm(2, 0, 3)
	// Port 1 of p0 is p1 (X=0): disabled. p1's port 1 is p0 (X=0): disabled.
	// p2's port 1 is p1 (X=0 != 3): enabled.
	enabled := EnabledSet(sys, cfg)
	if len(enabled) != 1 || enabled[0] != 2 {
		t.Fatalf("EnabledSet = %v, want [2]", enabled)
	}
	if EnabledAction(sys, cfg, 2) != 0 {
		t.Fatal("EnabledAction wrong")
	}
	if Enabled(sys, cfg, 0) {
		t.Fatal("p0 should be disabled")
	}
}

func TestRandPanicsInGuard(t *testing.T) {
	spec := &Spec{
		Name: "BADRAND",
		Comm: []VarSpec{{Name: "X", Domain: FixedDomain(2)}},
		Actions: []Action{{
			Name:  "bad",
			Guard: func(c *Ctx) bool { return c.Rand(2) == 0 },
			Apply: func(c *Ctx) {},
		}},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	cfg := NewZeroConfig(sys)
	defer func() {
		if recover() == nil {
			t.Fatal("randomness in guard did not panic")
		}
	}()
	ExecuteStep(sys, cfg, []int{0}, 0, func(int) *rng.Rand { return rng.New(1) }, nil)
}

// TestGuardWriteRefused: a guard is a predicate. One that writes own
// state, communication or internal, panics on every context that can
// evaluate it — the arena's, the reference step's, the tracker's probe
// and the silence check — and the configuration is left as it was.
func TestGuardWriteRefused(t *testing.T) {
	writes := map[string]func(c *Ctx){
		"SetComm":     func(c *Ctx) { c.SetComm(0, 1) },
		"SetInternal": func(c *Ctx) { c.SetInternal(0, 1) },
	}
	for name, write := range writes {
		spec := &Spec{
			Name:     "BADGUARD",
			Comm:     []VarSpec{{Name: "X", Domain: FixedDomain(2)}},
			Internal: []VarSpec{{Name: "y", Domain: FixedDomain(2)}},
			Actions: []Action{{
				Name:  "bad",
				Guard: func(c *Ctx) bool { write(c); return false },
				Apply: func(c *Ctx) {},
			}},
		}
		sys := mustSystem(t, graph.Path(2), spec, nil)
		sim, err := NewSimulator(sys, NewZeroConfig(sys), roundRobin{}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := NewZeroConfig(sys)
		entries := map[string]func(){
			"Simulator.Step": func() { sim.Step() },
			"ExecuteStep":    func() { ExecuteStep(sys, cfg, []int{0}, 0, nil, nil) },
			"EnabledTracker": func() { NewEnabledTracker(sys, cfg).EnabledAction(0) },
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
		if !sim.Config().Equal(cfg) || !cfg.Equal(NewZeroConfig(sys)) {
			t.Errorf("%s in a guard changed a configuration", name)
		}
	}
}

func TestSetCommDomainEnforced(t *testing.T) {
	spec := &Spec{
		Name: "OOB",
		Comm: []VarSpec{{Name: "X", Domain: FixedDomain(2)}},
		Actions: []Action{{
			Name:  "oob",
			Guard: func(c *Ctx) bool { return true },
			Apply: func(c *Ctx) { c.SetComm(0, 7) },
		}},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	cfg := NewZeroConfig(sys)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain write did not panic")
		}
	}()
	ExecuteStep(sys, cfg, []int{0}, 0, nil, nil)
}

func TestConfigCloneEqualValidate(t *testing.T) {
	sys := mustSystem(t, graph.Path(3), copySpec(), nil)
	cfg := NewRandomConfig(sys, rng.New(3))
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
	nop := Action{Name: "nop", Guard: func(*Ctx) bool { return false }, Apply: func(*Ctx) {}}
	spec := &Spec{
		Name:     "WIDE",
		Comm:     []VarSpec{{Name: "A", Domain: FixedDomain(4)}, {Name: "B", Domain: FixedDomain(4)}},
		Internal: []VarSpec{{Name: "I", Domain: FixedDomain(4)}},
		Actions:  []Action{nop},
	}
	sys := mustSystem(t, graph.Path(3), spec, nil)
	cfg := NewZeroConfig(sys)
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
	if !cfg.Equal(NewZeroConfig(sys)) {
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

	bare := mustSystem(t, graph.Path(3), &Spec{
		Name:    "BARE",
		Comm:    []VarSpec{{Name: "A", Domain: FixedDomain(4)}},
		Actions: []Action{nop},
	}, nil)
	if !panics(func() { NewZeroConfig(bare).Internal(1, 0) }) {
		t.Error("Internal(1, 0) on a system without internal variables did not panic")
	}
}

func TestRandomConfigDeterministic(t *testing.T) {
	sys := mustSystem(t, graph.Cycle(6), copySpec(), nil)
	a := NewRandomConfig(sys, rng.New(7))
	b := NewRandomConfig(sys, rng.New(7))
	if !a.Equal(b) {
		t.Fatal("NewRandomConfig not deterministic in seed")
	}
}

type roundRobin struct{}

func (roundRobin) Name() string { return "rr" }
func (roundRobin) Select(step int, sys *System, _ *Config) []int {
	return []int{step % sys.N()}
}

// RoundLog is an Observer that keeps the step at which each round
// completed, as StepEnd reports it.
type RoundLog struct{ Ends []int }

func (*RoundLog) StepBegin(int, []int)                    {}
func (*RoundLog) Selected(int, int, []int, int, int, int) {}
func (*RoundLog) CommWrite(int, int, int, int, int)       {}
func (l *RoundLog) StepEnd(step int, _ []int, roundCompleted bool) {
	if roundCompleted {
		l.Ends = append(l.Ends, step)
	}
}

func TestRoundTracking(t *testing.T) {
	sys := mustSystem(t, graph.Path(3), copySpec(), nil)
	cfg := NewZeroConfig(sys)
	cfg.SetComm(0, 0, 5)
	log := &RoundLog{}
	sim, err := NewSimulator(sys, cfg, roundRobin{}, 1, log)
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
	eq := NewZeroConfig(sys)
	silent, err := CommSilent(sys, eq)
	if err != nil || !silent {
		t.Fatalf("equal-values config not silent: %v %v", silent, err)
	}
	diff := NewZeroConfig(sys)
	diff.SetComm(1, 0, 1)
	silent, err = CommSilent(sys, diff)
	if err != nil || silent {
		t.Fatalf("conflicting config reported silent: %v %v", silent, err)
	}
}

func TestCommSilentWithRotatingInternal(t *testing.T) {
	// A protocol whose internal pointer rotates forever but never writes
	// comm is silent in every configuration: the orbit closes.
	sys := mustSystem(t, graph.Cycle(4), scanSpec(), nil)
	cfg := NewRandomConfig(sys, rng.New(9))
	silent, err := CommSilent(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !silent {
		t.Fatal("scanner protocol should be silent everywhere")
	}
}

func TestCommSilentRandomizedBreaks(t *testing.T) {
	spec := &Spec{
		Name: "RND",
		Comm: []VarSpec{{Name: "X", Domain: FixedDomain(4)}},
		Actions: []Action{{
			Name:       "rnd",
			Guard:      func(c *Ctx) bool { return c.Comm(0) == c.NeighborComm(1, 0) },
			Apply:      func(c *Ctx) { c.SetComm(0, c.Rand(4)) },
			Randomized: true,
		}},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	conflict := NewZeroConfig(sys) // equal values: randomized action enabled
	silent, err := CommSilent(sys, conflict)
	if err != nil || silent {
		t.Fatalf("enabled randomized action should break silence: %v %v", silent, err)
	}
	ok := NewZeroConfig(sys)
	ok.SetComm(1, 0, 2)
	silent, err = CommSilent(sys, ok)
	if err != nil || !silent {
		t.Fatalf("disabled randomized protocol should be silent: %v %v", silent, err)
	}
}

func TestSimulatorRejectsInvalidConfig(t *testing.T) {
	sys := mustSystem(t, graph.Path(2), copySpec(), nil)
	bad := NewZeroConfig(sys)
	bad.SetComm(0, 0, 99)
	if _, err := NewSimulator(sys, bad, roundRobin{}, 1, nil); err == nil {
		t.Fatal("invalid initial configuration accepted")
	}
}

func TestRunUntilSilent(t *testing.T) {
	sys := mustSystem(t, graph.Path(4), copySpec(), nil)
	cfg := NewZeroConfig(sys)
	cfg.SetComm(3, 0, 2)
	sim, err := NewSimulator(sys, cfg, roundRobin{}, 1, nil)
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
	if got, err := CommSilent(sys, sim.Config()); err != nil || !got {
		t.Fatal("final configuration not silent")
	}
}

func TestVarKindString(t *testing.T) {
	if KindComm.String() != "comm" || KindConst.String() != "const" || KindInternal.String() != "internal" {
		t.Fatal("VarKind strings wrong")
	}
	if VarKind(99).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}
