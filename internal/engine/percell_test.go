package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
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
	err := RunCellsReduce(cfg, cells, func(cell, trial int, res *core.RunResult) error {
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
// RunCellReduce — on a single reused WorkerCtx, in reverse order —
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
				err := RunCellReduce(tc.cfg, w, &cells[i], i, func(cell, trial int, res *core.RunResult) error {
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
	err := RunCellReduce(cfg, NewWorkerCtx(), &cells[0], 17, func(cell, trial int, res *core.RunResult) error {
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

// TestRunFaultCellReduceGuards: a plain cell fed to the fault entry
// point, or a faulted cell to the plain one, errors instead of
// panicking.
func TestRunFaultCellReduceGuards(t *testing.T) {
	t.Parallel()
	cells := syntheticCells(1, func(cell, trial int) int { return 1 })
	err := RunFaultCellReduce(Config{Seed: 1, Trials: 1}, NewWorkerCtx(), &cells[0], 0,
		func(cell, trial int, res *core.FaultResult) error { return nil })
	if err == nil {
		t.Fatal("RunFaultCellReduce accepted a cell without RunFaultOn")
	}
	faulted := Cell{Key: "f", RunFaultOn: func(*core.Runner, int, uint64, *core.FaultResult) error { return nil }}
	err = RunCellReduce(Config{Seed: 1, Trials: 1}, NewWorkerCtx(), &faulted, 0,
		func(cell, trial int, res *core.RunResult) error { return nil })
	if err == nil {
		t.Fatal("RunCellReduce accepted a cell without RunOn")
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
		err := RunCellReduce(cfg, w, &cells[i], i, func(cell, trial int, res *core.RunResult) error {
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

// TestTrialFinishCount: the one cell loop stamps a faulted cell's
// trial-finish with the injections its trial performed and a plain
// cell's with 0, under a fixed budget and under a stop rule. Every case
// runs on the same WorkerCtx, faulted before plain, so a count left in
// the shared result buffer would show.
func TestTrialFinishCount(t *testing.T) {
	t.Parallel()
	faulted := Cell{
		Key: "synthetic-fault",
		RunFaultOn: func(_ *core.Runner, trial int, _ uint64, res *core.FaultResult) error {
			res.RunResult = core.RunResult{Silent: true, RoundsToSilence: 7}
			res.Injections = trial + 2
			return nil
		},
	}
	plain := syntheticCells(1, func(cell, trial int) int { return 7 })[0]
	fixed := Config{Seed: 1, Trials: 3}
	adaptive := Config{Seed: 1, Stop: StopRule{HalfWidth: 0.5, Min: 2, Max: 9}} // zero variance: stops at Min
	w := NewWorkerCtx()
	for _, tc := range []struct {
		name string
		cfg  Config
		cell *Cell
		want []int // Count of each trial-finish, in trial order
	}{
		{"faulted/fixed", fixed, &faulted, []int{2, 3, 4}},
		{"plain/fixed", fixed, &plain, []int{0, 0, 0}},
		{"faulted/stop", adaptive, &faulted, []int{2, 3}},
		{"plain/stop", adaptive, &plain, []int{0, 0}},
	} {
		sink := obsCollector{}
		tc.cfg.Observer = &sink
		var err error
		if tc.cell.RunFaultOn != nil {
			err = RunFaultCellReduce(tc.cfg, w, tc.cell, 0, func(int, int, *core.FaultResult) error { return nil })
		} else {
			err = RunCellReduce(tc.cfg, w, tc.cell, 0, func(int, int, *core.RunResult) error { return nil })
		}
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
	}
}
