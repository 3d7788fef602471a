package experiment

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// materialize is the tests' materializing oracle: it runs n cells
// through the fold path run drives and keeps a deep copy of every
// result, indexed [cell][trial].
func materialize(n int, run func(engine.Fold) error) ([][]*core.RunResult, error) {
	out := make([][]*core.RunResult, n)
	err := run(func(cell, trial int, res *core.FaultResult) error {
		cp := res.RunResult
		cp.Report.SuffixReadSetHist = slices.Clone(res.Report.SuffixReadSetHist)
		cp.Final = res.Final.Clone()
		out[cell] = append(out[cell], &cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// legacyCells rebuilds a plain campaign's cells on the one-shot
// execution path: a fresh random configuration, scheduler, recorder and
// simulator per trial via core.Run, ignoring the worker's Runner. The
// pooled engine must reproduce its results exactly.
func legacyCells(t *testing.T, cfg Config, plan *campaign.Plan) []engine.Cell {
	t.Helper()
	cells := make([]engine.Cell, len(plan.Cells))
	for i := range plan.Cells {
		cs := &plan.Cells[i]
		g, err := cs.Graph().Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := engine.Build(g, cs.Protocol, nil)
		if err != nil {
			t.Fatal(err)
		}
		daemon, suffix := cs.Daemon, plan.Spec.SuffixRounds
		cells[i] = engine.Cell{
			Key: cs.Key,
			Run: func(_ *core.Runner, trial int, seed uint64, res *core.FaultResult) error {
				initial := model.NewRandomConfig(sys, rng.New(seed))
				scheduler, err := sched.ByName(daemon, seed)
				if err != nil {
					return err
				}
				r, err := core.Run(sys, initial, core.RunOptions{
					Scheduler:    scheduler,
					Seed:         seed,
					MaxSteps:     cfg.MaxSteps,
					SuffixRounds: suffix,
				})
				if err != nil {
					return err
				}
				*res = core.FaultResult{RunResult: *r}
				return nil
			},
		}
	}
	return cells
}

// TestPooledMatchesUnpooled is the engine's correctness contract at the
// result level: the worker-affine Runner path (reused recorders,
// simulators, schedulers, configuration buffers) produces run results
// deep-equal to the one-shot path, trial by trial, across protocols,
// schedulers and parallelism levels.
func TestPooledMatchesUnpooled(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 11, Trials: 4, MaxSteps: 400000, Quick: true, Parallelism: 1}
	const axes = `graph suite quick
protocol coloring mis matching
daemon random-subset laziest-fair
suffix-rounds 2
`
	plan, _, err := compileSpec(cfg, "pooled-vs-unpooled", axes)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyCells(t, cfg, plan)
	want, err := materialize(len(legacy), func(fold engine.Fold) error {
		return engine.RunCells(cfg.engineConfig(), legacy, fold)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		plan, in, err := compileSpec(cfg, "pooled-vs-unpooled", axes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := materialize(len(plan.Cells), in.RunCells)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for ci := range want {
			for ti := range want[ci] {
				if !reflect.DeepEqual(want[ci][ti], got[ci][ti]) {
					t.Fatalf("parallelism %d: cell %s trial %d differs:\nunpooled %+v\npooled   %+v",
						par, plan.Cells[ci].Key, ti, want[ci][ti], got[ci][ti])
				}
			}
		}
	}
}

// TestReduceMatchesMaterialized: at every parallelism the streaming path
// folds exactly the results materialized at parallelism 1, cfg.Trials of
// them per cell and in trial order.
func TestReduceMatchesMaterialized(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 23, Trials: 3, MaxSteps: 400000, Quick: true, Parallelism: 1}
	const axes = `graph suite quick
protocol coloring
suffix-rounds 2
`
	plan, in, err := compileSpec(cfg, "reduce-vs-materialized", axes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := materialize(len(plan.Cells), in.RunCells)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		cfg.Parallelism = par
		plan, in, err := compileSpec(cfg, "reduce-vs-materialized", axes)
		if err != nil {
			t.Fatal(err)
		}
		lastTrial := make([]int, len(plan.Cells))
		for i := range lastTrial {
			lastTrial[i] = -1
		}
		seen := make([]int, len(plan.Cells))
		err = in.RunCells(func(cell, trial int, res *core.FaultResult) error {
			if trial != lastTrial[cell]+1 {
				return fmt.Errorf("cell %d: fold at trial %d after trial %d (want in-order)", cell, trial, lastTrial[cell])
			}
			lastTrial[cell] = trial
			seen[cell]++
			if !reflect.DeepEqual(*want[cell][trial], res.RunResult) {
				return fmt.Errorf("cell %d trial %d: streamed result differs from materialized", cell, trial)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, n := range seen {
			if n != cfg.Trials {
				t.Fatalf("parallelism %d: cell %d folded %d trials, want %d", par, i, n, cfg.Trials)
			}
		}
	}
}

// TestRegistryTablesAcrossSeedsAndParallelism is the acceptance-level
// determinism check: for fixed seeds the rendered tables of the
// registry's pool-driven experiments are byte-identical between
// Parallelism 1 and 4. E12 (wall-clock) and E22 (wall-clock and heap
// measurements) are excluded by design.
func TestRegistryTablesAcrossSeedsAndParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full registry sweep is a long test")
	}
	for _, seed := range []uint64{3, 2009} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, e := range Registry() {
				if e.ID == "E12" || e.ID == "E22" {
					continue
				}
				var tables []string
				for _, par := range []int{1, 4} {
					cfg := Config{Seed: seed, Trials: 3, MaxSteps: 400000, Quick: true, Parallelism: par}
					res, err := e.Run(cfg)
					if err != nil {
						t.Fatalf("%s parallelism %d: %v", e.ID, par, err)
					}
					tables = append(tables, res.Table.String())
				}
				if tables[0] != tables[1] {
					t.Fatalf("%s: tables differ between Parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s",
						e.ID, tables[0], tables[1])
				}
			}
		})
	}
}
