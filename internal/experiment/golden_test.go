package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-table regression test pins the full fixed-seed registry
// output: every experiment's rendered table (E1-E21, minus the
// wall-clock-dependent E12) is committed under testdata/ and future
// engine changes prove byte-identical tables by `go test` instead of
// ad-hoc diffing. Regenerate after an intentional table change with
//
//	go test ./internal/experiment -run TestGoldenTables -update
//
// and review the diff like any other golden change. Each experiment is
// rendered at Parallelism 1 and 4, so the committed bytes also enforce
// the engine's parallelism-independence on every run.

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables under testdata/")

// goldenConfig is the fixed configuration the golden tables are rendered
// under: the canonical seed, the full graph suite, and a trial count
// that keeps the whole sweep fast enough for the -short suite.
func goldenConfig(parallelism int) Config {
	return Config{Seed: 2009, Trials: 3, MaxSteps: 400_000, Parallelism: parallelism}
}

func renderGolden(res *Result) string {
	out := res.Table.String()
	out += fmt.Sprintf("\npass: %v\n", res.Pass)
	if res.Notes != "" {
		out += fmt.Sprintf("notes: %s\n", res.Notes)
	}
	return out
}

func TestGoldenTables(t *testing.T) {
	t.Parallel()
	for _, e := range Registry() {
		if e.ID == "E12" || e.ID == "E22" {
			continue // wall-clock-dependent by design
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", e.ID+".golden")
			var rendered [2]string
			for i, par := range []int{1, 4} {
				res, err := e.Run(goldenConfig(par))
				if err != nil {
					t.Fatalf("%s at parallelism %d: %v", e.ID, par, err)
				}
				rendered[i] = renderGolden(res)
			}
			if rendered[0] != rendered[1] {
				t.Fatalf("%s: tables differ between Parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s",
					e.ID, rendered[0], rendered[1])
			}
			if *updateGolden {
				if err := os.WriteFile(path, []byte(rendered[0]), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create it): %v", err)
			}
			if string(want) != rendered[0] {
				t.Fatalf("%s table drifted from the committed golden (regenerate with -update if intentional):\n--- want ---\n%s\n--- got ---\n%s",
					e.ID, want, rendered[0])
			}
		})
	}
}

// TestImpossibilitySeedIndependent renders E7 and E8 at seeds 1-64, the
// seeds the registry benchmark rotates through, and requires each table
// to equal its golden: the witnesses are searched, not sampled, so only
// the recovery runs read the seed, and they must recover at every one.
func TestImpossibilitySeedIndependent(t *testing.T) {
	t.Parallel()
	for _, e := range []Entry{{ID: "E7", Run: E7TheoremOne}, {ID: "E8", Run: E8TheoremTwo}} {
		want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 64; seed++ {
			cfg := goldenConfig(2)
			cfg.Seed = seed
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s at seed %d: %v", e.ID, seed, err)
			}
			if got := renderGolden(res); got != string(want) {
				t.Fatalf("%s at seed %d differs from the golden:\n%s", e.ID, seed, got)
			}
		}
	}
}
