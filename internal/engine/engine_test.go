package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestFamiliesRegistry(t *testing.T) {
	t.Parallel()
	want := []string{
		FamBFSTree, FamBFSTreeXform, FamColoring, FamColoringBaseline, FamColoringXform, FamFrozen,
		FamMatching, FamMatchingBaseline, FamMatchingFrozen, FamMatchingXform,
		FamMIS, FamMISBaseline, FamMISFrozen, FamMISXform,
	}
	if got := Families(); !slices.Equal(got, want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
}

// TestSystemBuildsEveryFamily builds every family of the table on one
// network: each spec carries its predicate, System hands it back beside
// the system, a -xform family is its full-read family transformed, and
// the families that hold local identifiers hold the ones they are given.
func TestSystemBuildsEveryFamily(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(5)
	colors := []int{1, 2, 1, 2, 3}
	fullRead := map[string]string{
		FamColoringXform: FamColoringBaseline, FamMISXform: FamMISBaseline,
		FamMatchingXform: FamMatchingBaseline, FamBFSTreeXform: FamBFSTree,
	}
	for _, fam := range Families() {
		sys, legit, err := System(g, fam)
		if err != nil {
			t.Fatalf("System(%s): %v", fam, err)
		}
		if sys.Spec().Legitimate == nil || legit == nil {
			t.Fatalf("System(%s): the spec declares no predicate", fam)
		}
		if orig, ok := fullRead[fam]; ok {
			base, err := Build(g, orig, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := base.Spec().Name + "-XFORM"; sys.Spec().Name != want {
				t.Fatalf("%s builds %s, want %s", fam, sys.Spec().Name, want)
			}
		}
		sys, err = Build(g, fam, colors)
		if err != nil {
			t.Fatalf("Build(%s) with colors: %v", fam, err)
		}
		if len(sys.Spec().Const) == 0 || sys.Spec().Const[0].Name != "C" {
			continue
		}
		for p, c := range colors {
			if sys.Const(p, 0) != c-1 {
				t.Fatalf("%s: process %d holds identifier %d, given %d", fam, p, sys.Const(p, 0)+1, c)
			}
		}
		if _, err := Build(g, fam, []int{1, 1, 2, 1, 2}); err == nil {
			t.Fatalf("%s accepted an improper coloring", fam)
		}
	}
	if _, err := Build(g, "teleport", nil); err == nil || !strings.Contains(err.Error(), "unknown protocol family") {
		t.Fatalf("unknown family accepted: %v", err)
	}
}

func TestSilentSnapshotsMatchProtoKeys(t *testing.T) {
	t.Parallel()
	g := graph.Path(6)
	cfg := Config{Seed: 2009, Trials: 3, MaxSteps: 100_000, Parallelism: 1}
	specs := []ProtoCell{protoSpec(t, g, FamColoring), protoSpec(t, g, FamMIS)}
	snaps, err := SilentSnapshots(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0] == nil || snaps[1] == nil {
		t.Fatalf("snapshots missing: %v", snaps)
	}
	// Batching must not matter: a per-spec call sees the same snapshot,
	// because trial seeds derive from the cell key alone.
	solo, err := SilentSnapshots(cfg, specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !snaps[0].Equal(solo[0]) {
		t.Fatal("snapshot depends on warm-up batching; seed derivation broken")
	}
}

// TestSilentSnapshotsStopAtFirstHit: a warm-up runs a spec's trials in
// trial order and stops at the first that ends silent and legitimate —
// index of the first hit + 1 trials, not cfg.Trials — and the snapshot
// is that trial's final configuration as the fold path reports it, at
// every Trials bound and Parallelism. A step budget small enough that
// trial 0 misses moves the hit to a later trial; when none hits within
// cfg.Trials the error names the family and the graph.
func TestSilentSnapshotsStopAtFirstHit(t *testing.T) {
	t.Parallel()
	specs := []ProtoCell{
		protoSpec(t, graph.Cycle(13), FamColoring),
		protoSpec(t, graph.Grid(4, 4), FamMIS),
		protoSpec(t, graph.Torus(3, 4), FamMatching),
	}
	// firstHits is the oracle: each spec's first silent legitimate trial
	// on the fold path (-1: none) and a copy of its final configuration.
	firstHits := func(cfg Config) ([]int, []*model.Config) {
		t.Helper()
		idx, final := make([]int, len(specs)), make([]*model.Config, len(specs))
		for i := range idx {
			idx[i] = -1
		}
		err := runProto(cfg, specs, func(cell, trial int, res *core.FaultResult) error {
			if idx[cell] < 0 && res.Silent && res.LegitimateAtSilence {
				idx[cell], final[cell] = trial, res.Final.Clone()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx, final
	}
	// counted runs the warm-up over cells whose Run counts its calls.
	counted := func(cfg Config) ([]*model.Config, []int64) {
		t.Helper()
		cfg = cfg.WithDefaults()
		cells, err := protoCells(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		calls := make([]int64, len(cells))
		for i := range cells {
			run, n := cells[i].Run, &calls[i]
			cells[i].Run = func(rn *core.Runner, trial int, seed uint64, res *core.FaultResult) error {
				atomic.AddInt64(n, 1)
				return run(rn, trial, seed, res)
			}
		}
		snaps, err := firstSilentLegitimate(cfg, cells)
		if err != nil {
			t.Fatal(err)
		}
		return snaps, calls
	}

	// Trial 0 of the first spec needs more steps than some later trial:
	// a budget between the two makes trial 0 miss and the later one hit.
	const trials = 50
	full := make([]int, trials)
	err := runProto(Config{Seed: 2009, Trials: trials, MaxSteps: 100_000, Parallelism: 1}, specs[:1],
		func(_, trial int, res *core.FaultResult) error {
			full[trial] = res.StepsToSilence
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	tight := slices.Min(full[1:])
	if tight >= full[0] {
		t.Fatalf("test setup: trial 0 converges in %d steps, no later trial in fewer (%v)", full[0], full)
	}

	for _, maxSteps := range []int{100_000, tight} {
		for _, n := range []int{1, 8, trials} {
			for _, par := range []int{1, 4} {
				cfg := Config{Seed: 2009, Trials: n, MaxSteps: maxSteps, Parallelism: par}
				wantIdx, wantFinal := firstHits(cfg)
				snaps, calls := counted(cfg)
				for i := range specs {
					wantCalls := int64(wantIdx[i] + 1)
					if wantIdx[i] < 0 {
						wantCalls = int64(n)
					}
					if calls[i] != wantCalls {
						t.Errorf("MaxSteps %d Trials %d Parallelism %d spec %d: %d trials run, want %d (first hit at %d)",
							maxSteps, n, par, i, calls[i], wantCalls, wantIdx[i])
					}
					if !reflect.DeepEqual(snaps[i], wantFinal[i]) {
						t.Errorf("MaxSteps %d Trials %d Parallelism %d spec %d: snapshot differs from the fold path's first silent legitimate Final",
							maxSteps, n, par, i)
					}
				}
				if maxSteps == tight && n == trials && wantIdx[0] <= 0 {
					t.Errorf("tight budget: first spec's first hit at trial %d, want a later trial than 0", wantIdx[0])
				}
				// The exported entry point returns the same snapshots, or
				// the error for the first spec that has none.
				got, err := SilentSnapshots(cfg, specs)
				miss := slices.Index(wantIdx, -1)
				if miss < 0 {
					if err != nil || !reflect.DeepEqual(got, wantFinal) {
						t.Errorf("MaxSteps %d Trials %d Parallelism %d: SilentSnapshots = (%v, %v), want the fold path's configurations",
							maxSteps, n, par, got, err)
					}
					continue
				}
				want := fmt.Sprintf("engine: %s produced no legitimate silent run on %s", specs[miss].Family, specs[miss].System.Graph().Name())
				if err == nil || err.Error() != want {
					t.Errorf("MaxSteps %d Trials %d Parallelism %d: SilentSnapshots error %v, want %q", maxSteps, n, par, err, want)
				}
			}
		}
	}

	// No trial can reach silence in one step from these configurations.
	cfg := Config{Seed: 2009, Trials: 8, MaxSteps: 1, Parallelism: 2}
	if idx, _ := firstHits(cfg); slices.Max(idx) >= 0 {
		t.Fatalf("test setup: a trial is silent and legitimate after one step (%v)", idx)
	}
	if _, calls := counted(cfg); !slices.Equal(calls, []int64{8, 8, 8}) {
		t.Errorf("no hit: trials run per spec %v, want all of cfg.Trials", calls)
	}
	_, err = SilentSnapshots(cfg, specs)
	if want := "engine: coloring produced no legitimate silent run on " + specs[0].System.Graph().Name(); err == nil || err.Error() != want {
		t.Errorf("no hit: error %v, want %q", err, want)
	}
}
