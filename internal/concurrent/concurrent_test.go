package concurrent

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
)

func modes() []Mode {
	return []Mode{ModeGlobal, ModeNeighborhood, ModeRegisters}
}

func TestModeString(t *testing.T) {
	for _, m := range modes() {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode has empty string")
	}
}

func TestConcurrentColoringAllModes(t *testing.T) {
	g := graph.RandomConnectedGNP(12, 0.3, rng.New(77))
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes() {
		cfg := model.NewRandomConfig(sys, rng.New(1))
		res, err := Run(sys, cfg, Options{
			Mode:               mode,
			Seed:               42,
			MaxStepsPerProcess: 300000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent || !res.Legitimate {
			t.Fatalf("mode %s: silent=%v legit=%v after %d steps",
				mode, res.Silent, res.Legitimate, res.TotalSteps)
		}
		if res.TotalSteps <= 0 || res.Elapsed <= 0 {
			t.Fatalf("mode %s: counters not recorded", mode)
		}
	}
}

func TestConcurrentMISAllModes(t *testing.T) {
	g := graph.Grid(3, 4)
	colors := graph.GreedyLocalColoring(g)
	sys, err := engine.Build(g, engine.FamMIS, colors)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes() {
		cfg := model.NewRandomConfig(sys, rng.New(2))
		res, err := Run(sys, cfg, Options{
			Mode:               mode,
			Seed:               43,
			MaxStepsPerProcess: 300000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent || !res.Legitimate {
			t.Fatalf("mode %s: silent=%v legit=%v", mode, res.Silent, res.Legitimate)
		}
	}
}

// TestConcurrentMatchingAllModes runs MATCHING and its cached-view
// transform, whose one model.View every goroutine evaluates through.
func TestConcurrentMatchingAllModes(t *testing.T) {
	g := graph.Cycle(10)
	colors := graph.GreedyLocalColoring(g)
	for _, family := range []string{engine.FamMatching, engine.FamMatchingXform} {
		sys, err := engine.Build(g, family, colors)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes() {
			cfg := model.NewRandomConfig(sys, rng.New(3))
			res, err := Run(sys, cfg, Options{
				Mode:               mode,
				Seed:               44,
				MaxStepsPerProcess: 300000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Silent || !res.Legitimate {
				t.Fatalf("%s, mode %s: silent=%v legit=%v", family, mode, res.Silent, res.Legitimate)
			}
		}
	}
}

func TestConcurrentMatchesLockStepOutcomeMIS(t *testing.T) {
	// The MIS silent configuration is unique per colored network, so the
	// concurrent runtime must land on exactly the lock-step outcome.
	g := graph.Path(8)
	colors := graph.GreedyLocalColoring(g)
	sys, err := engine.Build(g, engine.FamMIS, colors)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(9))
	res, err := Run(sys, cfg, Options{
		Mode:               ModeNeighborhood,
		Seed:               9,
		MaxStepsPerProcess: 300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("no silence")
	}
	for p := 0; p < g.N(); p++ {
		want := mis.Dominator
		// Unique outcome on a 2-colored path: color-1 processes (even
		// ids under the greedy coloring) dominate.
		if colors[p] != 1 {
			want = mis.Dominated
		}
		if res.Final.Comm(p, mis.VarS) != want {
			t.Fatalf("process %d: S=%d want %d", p, res.Final.Comm(p, mis.VarS), want)
		}
	}
}

func TestConcurrentRejectsInvalidConfig(t *testing.T) {
	g := graph.Path(3)
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := model.NewZeroConfig(sys)
	bad.SetComm(0, coloring.VarC, 99)
	if _, err := Run(sys, bad, Options{}); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

func TestConcurrentBudgetExhaustion(t *testing.T) {
	// A tiny budget must terminate promptly and report honestly.
	g := graph.Complete(5)
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys) // monochromatic clique
	res, err := Run(sys, cfg, Options{
		Mode:               ModeGlobal,
		Seed:               1,
		MaxStepsPerProcess: 2,
		PollInterval:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps > 5*2 {
		t.Fatalf("budget exceeded: %d steps", res.TotalSteps)
	}
}

func TestConcurrentInitialConfigNotMutated(t *testing.T) {
	g := graph.Cycle(6)
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(4))
	keep := cfg.Clone()
	if _, err := Run(sys, cfg, Options{Seed: 5, MaxStepsPerProcess: 1000}); err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(keep) {
		t.Fatal("caller's configuration was mutated")
	}
}

// A silence oracle that fails must fail the run: one internal counter
// over a domain above the oracle's orbit cap keeps every process enabled
// and never touches communication state, so model.CommSilent reports
// "orbit exceeded" on every snapshot while the workers step normally.
func TestConcurrentReturnsSilenceOracleError(t *testing.T) {
	const domain = 1 << 17
	spec := &model.Spec{
		Name:     "COUNTER",
		Internal: []model.VarSpec{{Name: "t", Domain: func(model.DomainInfo) int { return domain }}},
		Actions: []model.Action{{
			Name:  "tick",
			Guard: func(*model.Ctx) bool { return true },
			Apply: func(c *model.Ctx) { c.SetInternal(0, (c.Internal(0)+1)%domain) },
		}},
	}
	sys, err := model.NewSystem(graph.Path(2), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.CommSilent(sys, model.NewZeroConfig(sys)); err == nil {
		t.Fatal("the oracle decides this spec; the test needs one it cannot")
	}
	for _, mode := range modes() {
		res, err := Run(sys, model.NewZeroConfig(sys), Options{Mode: mode, Seed: 1, MaxStepsPerProcess: 1000})
		if err == nil || !strings.Contains(err.Error(), "orbit exceeded") {
			t.Fatalf("mode %s: result %+v, error %v; want the oracle's orbit error", mode, res, err)
		}
	}
}
