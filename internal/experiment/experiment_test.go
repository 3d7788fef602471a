package experiment

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

func quickCfg() Config {
	cfg := Config{Seed: 42, Trials: 2, MaxSteps: 400000, Quick: true}
	if testing.Short() {
		cfg.Trials = 1
	}
	return cfg
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	ids := IDs()
	if len(ids) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(ids))
	}
	for i, id := range ids {
		want := "E" + itoa(i+1)
		if id != want {
			t.Fatalf("registry[%d] = %s, want %s", i, id, want)
		}
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

func TestByID(t *testing.T) {
	t.Parallel()
	if _, err := ByID("E1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsPassQuick(t *testing.T) {
	// The headline test of the reproduction: every experiment's measured
	// data is consistent with the paper's claims, on the quick suite.
	cfg := quickCfg()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.ID != "E12" {
				// E12 is the wall-clock-sensitive goroutine runtime; it
				// runs alone so concurrent subtests cannot starve it.
				t.Parallel()
			}
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %s != %s", res.ID, e.ID)
			}
			if !res.Pass {
				t.Fatalf("%s (%s) FAILED:\n%s", res.ID, res.PaperRef, res.Table.String())
			}
			if res.Title == "" || res.PaperRef == "" || res.Claim == "" {
				t.Fatalf("%s: missing metadata", res.ID)
			}
			if len(res.Table.Rows) == 0 {
				t.Fatalf("%s: empty table", res.ID)
			}
			out := res.Table.String()
			if !strings.Contains(out, e.ID+":") {
				t.Fatalf("%s: table title does not carry the id:\n%s", res.ID, out)
			}
		})
	}
}

// TestE19PassesAtEverySeed runs E19 at 50 trials for seeds 1–60. Rewiring
// the 4×4 grid can leave a corner isolated at the last firing; MIS's
// predicate once demanded a Dominator neighbor of an isolated dominated
// process, and E19 failed at nine of these seeds.
func TestE19PassesAtEverySeed(t *testing.T) {
	t.Parallel()
	var failed []uint64
	for seed := uint64(1); seed <= 60; seed++ {
		res, err := E19ChurnedConvergence(Config{Seed: seed, Trials: 50, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			failed = append(failed, seed)
		}
	}
	if len(failed) > 0 {
		t.Fatalf("E19 fails at seeds %v", failed)
	}
}

func TestSuiteSizes(t *testing.T) {
	t.Parallel()
	q, err := graph.Suite(1, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := graph.Suite(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) >= len(full) {
		t.Fatalf("quick suite (%d) not smaller than full (%d)", len(q), len(full))
	}
	for _, g := range full {
		if !g.IsConnected() {
			t.Fatalf("suite graph %s disconnected", g)
		}
	}
}

func TestProtocolSystemFamilies(t *testing.T) {
	t.Parallel()
	graphs, err := graph.Suite(2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range engine.Families() {
		sys, err := engine.Build(graphs[0], fam, nil)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if sys.Spec().Legitimate == nil {
			t.Fatalf("%s: the spec declares no predicate", fam)
		}
	}
	if _, err := engine.Build(graphs[0], "nope", nil); err == nil {
		t.Fatal("unknown family accepted")
	}
}
