package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestPoolDeterminismAcrossParallelism is the engine's headline
// guarantee: for a fixed seed the rendered experiment tables are
// byte-identical for every Parallelism value. E1 exercises a
// one-protocol suite campaign, E5 the multi-scheduler grid, E15
// snapshot-seeded cells and E7 the demo fan-out.
func TestPoolDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	runners := []struct {
		id  string
		run Runner
	}{
		{"E1", E1ColoringConvergence},
		{"E5", E5MatchingRounds},
		{"E7", E7TheoremOne},
		{"E15", E15FaultContainment},
	}
	if testing.Short() {
		runners = runners[:2]
	}
	for _, r := range runners {
		r := r
		t.Run(r.id, func(t *testing.T) {
			t.Parallel()
			var tables []string
			for _, par := range []int{1, 8} {
				cfg := Config{Seed: 7, Trials: 4, MaxSteps: 400000, Quick: true, Parallelism: par}
				if testing.Short() {
					cfg.Trials = 2
				}
				res, err := r.run(cfg)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				tables = append(tables, res.Table.String())
			}
			if tables[0] != tables[1] {
				t.Fatalf("tables differ between Parallelism 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s",
					tables[0], tables[1])
			}
		})
	}
}

// TestRunCellsSeedsPositionIndependent checks the seed contract
// directly: the seed handed to (cell, trial) depends only on the master
// seed, the cell key and the trial index.
func TestRunCellsSeedsPositionIndependent(t *testing.T) {
	t.Parallel()
	collect := func(parallelism int) [][]uint64 {
		seeds := make([][]uint64, 3)
		var mu sync.Mutex
		cells := make([]engine.Cell, 3)
		for i := range cells {
			i := i
			seeds[i] = make([]uint64, 5)
			cells[i] = engine.Cell{
				Key: fmt.Sprintf("cell-%d", i),
				Run: func(_ *core.Runner, trial int, seed uint64, _ *core.FaultResult) error {
					mu.Lock()
					seeds[i][trial] = seed
					mu.Unlock()
					return nil
				},
			}
		}
		cfg := Config{Seed: 99, Trials: 5, Parallelism: parallelism}
		err := engine.RunCells(cfg.engineConfig(), cells, func(int, int, *core.FaultResult) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	seq, par := collect(1), collect(8)
	for c := range seq {
		for tr := range seq[c] {
			if seq[c][tr] != par[c][tr] {
				t.Fatalf("cell %d trial %d: seed %d (sequential) != %d (parallel)",
					c, tr, seq[c][tr], par[c][tr])
			}
			if seq[c][tr] == 0 {
				t.Fatalf("cell %d trial %d never ran", c, tr)
			}
		}
	}
	// Distinct cells and trials must get distinct seeds.
	seen := map[uint64]bool{}
	for _, row := range seq {
		for _, s := range row {
			if seen[s] {
				t.Fatalf("seed %d reused across cells/trials", s)
			}
			seen[s] = true
		}
	}
}

func TestRunCellsErrorPropagation(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var executed atomic.Int64
	mk := func(key string, failAt int) engine.Cell {
		return engine.Cell{
			Key: key,
			Run: func(_ *core.Runner, trial int, _ uint64, _ *core.FaultResult) error {
				executed.Add(1)
				if trial == failAt {
					return boom
				}
				return nil
			},
		}
	}
	// Sequential: the scan stops at the failing job, and the error names
	// the cell and trial.
	cells := []engine.Cell{mk("ok", -1), mk("bad", 1), mk("never", -1)}
	cfg := Config{Seed: 1, Trials: 3, Parallelism: 1}
	folds := 0
	err := engine.RunCells(cfg.engineConfig(), cells, func(int, int, *core.FaultResult) error {
		folds++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), `cell "bad" trial 1`) {
		t.Fatalf("err %q does not locate the failing cell/trial", err)
	}
	if got := executed.Load(); got != 5 { // 3 ok trials + bad trials 0 and 1
		t.Fatalf("sequential pool executed %d jobs, want 5", got)
	}
	if folds != 4 { // the failing trial is not folded
		t.Fatalf("fold saw %d results, want 4", folds)
	}
}

// TestForEachCancellation checks that after a failure the pool stops
// picking up new jobs: every pending job waits for the failure before
// returning, so only the in-flight window executes.
func TestForEachCancellation(t *testing.T) {
	t.Parallel()
	const n = 100
	failed := make(chan struct{})
	var executed atomic.Int64
	err := engine.ForEachWorker(8, n, func(_ *engine.WorkerCtx, i int) error {
		executed.Add(1)
		if i == 0 {
			close(failed)
			return fmt.Errorf("job 0 failed")
		}
		<-failed
		// The pool records the failure only after job 0 has returned,
		// which is after it released us: give it that moment, or the
		// other workers can drain all n jobs first.
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 0 failed") {
		t.Fatalf("err = %v, want job 0 failure", err)
	}
	if got := executed.Load(); got >= n/2 {
		t.Fatalf("pool executed %d of %d jobs after a failure", got, n)
	}
}

// TestForEachLowestErrorWins: when several jobs fail, the reported error
// is the one with the lowest job index among those observed.
func TestForEachLowestErrorWins(t *testing.T) {
	t.Parallel()
	err := engine.ForEachWorker(1, 10, func(_ *engine.WorkerCtx, i int) error {
		if i >= 3 {
			return fmt.Errorf("err-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "err-3" {
		t.Fatalf("err = %v, want err-3", err)
	}
}
