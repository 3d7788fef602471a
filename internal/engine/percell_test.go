package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// foldLog records every fold invocation of one run.
type foldLog struct {
	cell, trial int
	rounds      int
	seedCheck   uint64
}

// poolFolds runs cells through the pool path and returns the fold
// sequence grouped per cell (pool folds of different cells interleave;
// within a cell the order is the determinism contract).
func poolFolds(t *testing.T, cfg Config, cells []Cell) map[int][]foldLog {
	t.Helper()
	got := make(map[int][]foldLog)
	var mu sync.Mutex
	err := RunCells(cfg, cells, func(cell, trial int, res *core.FaultResult) error {
		mu.Lock()
		got[cell] = append(got[cell], foldLog{cell, trial, res.RoundsToSilence, 0})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRunCellReduceMatchesPool: running cells one at a time through
// RunCell — on a single reused WorkerCtx, in reverse order —
// reproduces the pool path's fold sequence exactly, including under a
// stop rule. This is what campaign.Execute's per-cell pool job rests
// on: any partition of cells onto workers merges byte-identically.
func TestRunCellReduceMatchesPool(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed-budget", Config{Seed: 42, Trials: 5, Parallelism: 2}},
		{"adaptive", Config{Seed: 42, Parallelism: 2, Stop: StopRule{HalfWidth: 0.5, Min: 2, Max: 9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mk := func() []Cell {
				return syntheticCells(4, func(cell, trial int) int {
					if cell%2 == 0 {
						return 7 // zero variance: adaptive stops at Min
					}
					return (trial%2)*100 + cell // high variance: runs to Max
				})
			}
			want := poolFolds(t, tc.cfg, mk())

			w := NewWorkerCtx()
			got := make(map[int][]foldLog)
			cells := mk()
			for i := len(cells) - 1; i >= 0; i-- { // reverse claim order
				err := RunCell(tc.cfg, w, &cells[i], i, func(cell, trial int, res *core.FaultResult) error {
					got[cell] = append(got[cell], foldLog{cell, trial, res.RoundsToSilence, 0})
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("cell coverage differs: got %d cells, want %d", len(got), len(want))
			}
			for cell, seq := range want {
				if fmt.Sprint(got[cell]) != fmt.Sprint(seq) {
					t.Fatalf("cell %d fold sequence differs:\npool:     %v\nper-cell: %v", cell, seq, got[cell])
				}
			}
		})
	}
}

// TestRunCellReduceAbsoluteIndex: events and fold callbacks carry the
// caller-provided index verbatim, so a service worker computing cell 17
// of a larger grid needs no remapping layer.
func TestRunCellReduceAbsoluteIndex(t *testing.T) {
	t.Parallel()
	cells := syntheticCells(1, func(cell, trial int) int { return 3 })
	sink := obsCollector{}
	cfg := Config{Seed: 1, Trials: 2, Parallelism: 1, Observer: &sink}
	err := RunCell(cfg, NewWorkerCtx(), &cells[0], 17, func(cell, trial int, res *core.FaultResult) error {
		if cell != 17 {
			return fmt.Errorf("fold saw cell %d, want 17", cell)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) == 0 {
		t.Fatal("no events emitted")
	}
	for _, e := range sink.events {
		if e.Cell != 17 {
			t.Fatalf("event %s carries cell %d, want 17", e.Kind, e.Cell)
		}
	}
	// Trial seeds must be the engine's canonical derivation.
	wantSeed := rng.Derive(rng.DeriveString(1, cells[0].Key), 0)
	for _, e := range sink.events {
		if e.Kind == obs.KindTrialStart && e.Trial == 0 && e.Seed != wantSeed {
			t.Fatalf("trial 0 seed %d, want %d", e.Seed, wantSeed)
		}
	}
}

// obsCollector buffers events (single-goroutine use).
type obsCollector struct{ events []obs.Event }

func (c *obsCollector) Observe(e obs.Event) { c.events = append(c.events, e) }

// TestRunCellNilRun: RunCell on a cell with a nil Run (a campaign cell
// computed before it was materialized) returns an error naming the key,
// it does not panic, and emits nothing.
func TestRunCellNilRun(t *testing.T) {
	t.Parallel()
	sink := obsCollector{}
	cell := Cell{Key: "never-built"}
	err := RunCell(Config{Seed: 1, Trials: 1, Observer: &sink}, NewWorkerCtx(), &cell, 0,
		func(cell, trial int, res *core.FaultResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), `"never-built"`) {
		t.Fatalf("RunCell on a nil Run: error %v, want one naming the key", err)
	}
	if len(sink.events) != 0 {
		t.Fatalf("RunCell on a nil Run emitted %d events", len(sink.events))
	}
}

// TestNewCellRefusesBadScenarios: a scenario without a system, or naming
// an unknown daemon, adversary or churn shape, is refused when the cell
// is built, not when its first trial runs.
func TestNewCellRefusesBadScenarios(t *testing.T) {
	t.Parallel()
	sys, err := Build(graph.Cycle(5), FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Trials: 1}.WithDefaults()
	for name, sc := range map[string]Scenario{
		"no system":         {Key: "k"},
		"unknown daemon":    {Key: "k", System: sys, Daemon: "round-robin-ish"},
		"unknown adversary": {Key: "k", System: sys, Adversary: "gremlin", K: 1},
		"unknown churn":     {Key: "k", System: sys, Churn: "earthquake", ChurnK: 1},
	} {
		if cell, err := NewCell(&cfg, sc); err == nil || cell.Run != nil {
			t.Errorf("%s: NewCell = (Run set: %v, %v), want an error and no closure", name, cell.Run != nil, err)
		}
	}
	if _, err := NewCell(&cfg, Scenario{Key: "k", System: sys}); err != nil {
		t.Errorf("the plain default scenario was refused: %v", err)
	}
}

// TestRunCellReduceRealProtocol: the per-cell path agrees with the pool
// on a real simulator cell (not just synthetic closures).
func TestRunCellReduceRealProtocol(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 2009, Trials: 4, MaxSteps: 100_000, Parallelism: 2}
	specs := []ProtoCell{
		{Graph: graph.Path(6), Family: FamColoring},
		{Graph: graph.Cycle(5), Family: FamMIS},
	}
	build := func() []Cell {
		cells, err := ProtoCells(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	want := poolFolds(t, cfg, build())

	w := NewWorkerCtx()
	got := make(map[int][]foldLog)
	cells := build()
	for i := range cells {
		err := RunCell(cfg, w, &cells[i], i, func(cell, trial int, res *core.FaultResult) error {
			got[cell] = append(got[cell], foldLog{cell, trial, res.RoundsToSilence, 0})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for cell, seq := range want {
		if fmt.Sprint(got[cell]) != fmt.Sprint(seq) {
			t.Fatalf("cell %d differs:\npool:     %v\nper-cell: %v", cell, seq, got[cell])
		}
	}
}

// TestTrialFinishCount: the cell loop stamps a trial-finish with the
// injections its trial performed, 0 for a plain trial, under a fixed
// budget and under a stop rule. The cells are NewCell's (an on-silence
// uniform adversary, and the same scenario without one) and every case
// runs on the same WorkerCtx, faulted before plain, so a count an empty
// plan left in the shared result buffer would show.
func TestTrialFinishCount(t *testing.T) {
	t.Parallel()
	sys, err := Build(graph.Cycle(5), FamMIS, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed := Config{Seed: 1, Trials: 3, MaxSteps: 100_000}
	adaptive := Config{Seed: 1, MaxSteps: 100_000, Stop: StopRule{HalfWidth: 1e9, Min: 2, Max: 9}} // stops at Min
	w := NewWorkerCtx()
	for _, tc := range []struct {
		name string
		cfg  Config
		sc   Scenario
		want []int // Count of each trial-finish, in trial order
	}{
		{"faulted/fixed", fixed, Scenario{Adversary: "uniform", K: 2, Schedule: fault.OnSilence(2)}, []int{2, 2, 2}},
		{"plain/fixed", fixed, Scenario{}, []int{0, 0, 0}},
		{"faulted/stop", adaptive, Scenario{Adversary: "uniform", K: 2, Schedule: fault.OnSilence(2)}, []int{2, 2}},
		{"plain/stop", adaptive, Scenario{}, []int{0, 0}},
	} {
		sink := obsCollector{}
		tc.cfg.Observer = &sink
		tc.sc.Key, tc.sc.System = "finish-count", sys
		cell, err := NewCell(&tc.cfg, tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var episodes []int
		err = RunCell(tc.cfg, w, &cell, 0, func(_, _ int, res *core.FaultResult) error {
			episodes = append(episodes, len(res.Episodes))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []int
		for _, e := range sink.events {
			if e.Kind == obs.KindTrialFinish {
				got = append(got, e.Count)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: trial-finish counts %v, want %v", tc.name, got, tc.want)
		}
		if fmt.Sprint(episodes) != fmt.Sprint(tc.want) {
			t.Errorf("%s: episodes per folded result %v, want %v", tc.name, episodes, tc.want)
		}
	}
}
