// Package engine is the parallel sharded trial engine shared by the
// experiment registry (internal/experiment) and the campaign subsystem
// (internal/campaign). Every cell — one protocol family on one graph
// under one scheduler, optionally with a fault adversary — runs its
// Config.Trials trials on one worker of a pool of Config.Parallelism
// goroutines. Each worker owns one reusable *core.Runner (recorder,
// simulator, scheduler, configuration buffers), so the steady-state
// trial loop allocates nothing; results stream through a fold without
// being retained (RunCellsReduce, RunFaultCellsReduce). The fold paths
// all run one loop, runCell: one cell's trials, in trial order, on one
// worker.
//
// Determinism: the seed of trial t of a cell is
//
//	rng.Derive(rng.DeriveString(Config.Seed, cell.Key), t)
//
// a pure function of the master seed, the cell key and the trial index.
// No seed depends on scheduling order, and results fold in trial order
// per cell, so the output is byte-identical for every Parallelism value
// (1 reproduces fully sequential execution) and identical between the
// pooled and one-shot execution paths.
package engine

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// StopRule is the sequential trial-stopping criterion of the streaming
// fold paths: instead of a fixed Config.Trials budget, a cell keeps
// running trials until the normal-approximation 95% confidence interval
// on its mean rounds-to-silence is at most HalfWidth wide (half-width),
// bounded below by Min and above by Max trials. Low-variance cells stop
// early; a cell whose interval never tightens runs exactly Max trials.
// Trials that exhaust the step budget fold their censored round count
// like any other observation, so a diverging cell cannot stall the rule.
//
// Determinism: the realized trial count is a pure function of the trial
// result stream, which is itself a pure function of (seed, cell key) —
// so adaptive runs stay byte-identical across Parallelism values.
type StopRule struct {
	// HalfWidth > 0 enables the rule: the target half-width of the 95%
	// CI on mean rounds-to-silence.
	HalfWidth float64
	// Min and Max bound the realized trial count. WithDefaults clamps
	// Min to at least 2 (no interval exists before the second trial)
	// and Max to at least Min.
	Min, Max int
}

// Enabled reports whether sequential stopping is active.
func (s StopRule) Enabled() bool { return s.HalfWidth > 0 }

// String renders the canonical form, "ci:HALFWIDTH:MIN..MAX" (used by
// the campaign DSL and the cache fingerprint); the zero rule is "none".
func (s StopRule) String() string {
	if !s.Enabled() {
		return "none"
	}
	return "ci:" + strconv.FormatFloat(s.HalfWidth, 'g', -1, 64) +
		":" + strconv.Itoa(s.Min) + ".." + strconv.Itoa(s.Max)
}

// withDefaults normalizes an enabled rule's bounds.
func (s StopRule) withDefaults() StopRule {
	if !s.Enabled() {
		return StopRule{}
	}
	if s.Min < 2 {
		s.Min = 2
	}
	if s.Max < s.Min {
		s.Max = s.Min
	}
	return s
}

// done reports whether a cell may stop after n trials whose
// rounds-to-silence stream is cs.
func (s StopRule) done(n int, cs *stats.Stream) bool {
	return n >= s.Min && (n >= s.Max || cs.CI95Half() <= s.HalfWidth)
}

// Config scales a trial run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Trials is the number of adversarial initial configurations per
	// cell (default 5). The fold paths run fewer under an enabled Stop
	// rule (which replaces the fixed budget with its Min..Max bounds).
	Trials int
	// MaxSteps is the per-run step budget (default 1_000_000).
	MaxSteps int
	// Parallelism is the number of worker goroutines the trial pool uses
	// (default runtime.GOMAXPROCS(0)). Results are identical for every
	// value; see the package documentation.
	Parallelism int
	// Observer receives structured run events (nil: no observation, the
	// free default). The cell-affine fold paths emit cell-start,
	// trial-start, trial-finish and cell-finish; core-level events
	// (silence, injections, recovery episodes) are emitted by the trial
	// closures that thread an obs.Scope into core.RunOptions.Events.
	Observer obs.Observer
	// Stop, when enabled, replaces the fixed Trials budget on the fold
	// paths with sequential stopping; see StopRule.
	Stop StopRule
}

// WithDefaults fills unset fields with the engine defaults.
func (c Config) WithDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1_000_000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	c.Stop = c.Stop.withDefaults()
	return c
}

// Cell is one unit of the experiment grid: a stable key used for seed
// derivation plus the function executing one adversarial trial on a
// worker's reusable Runner. Exactly one of RunOn and RunFaultOn must be
// non-nil. Different cells run concurrently, so what their closures
// share (systems, graphs) must be immutable after construction.
type Cell struct {
	// Key identifies the cell in the experiment grid; distinct cells of
	// one run must use distinct keys or they will share trial seeds.
	Key string
	// RunOn executes a plain trial, filling res in place: the pool passes
	// the worker's reused buffer, which the fold reads before the next
	// trial overwrites it.
	RunOn func(rn *core.Runner, trial int, seed uint64, res *core.RunResult) error
	// RunFaultOn executes the trial as an injected (adversarial-fault)
	// trial, filling a FaultResult in place. Cells of this form run only
	// under RunFaultCellsReduce and RunFaultCellReduce.
	RunFaultOn func(rn *core.Runner, trial int, seed uint64, res *core.FaultResult) error
}

// WorkerCtx is the reusable per-worker state of the cell loop: the
// Runner every trial executes on and the result buffer every trial
// fills (plain trials fill its embedded RunResult). The pool paths
// create one per worker goroutine; callers that schedule cells
// themselves (bench/'s traced pass) do the same and reuse it across
// every cell that worker claims.
type WorkerCtx struct {
	rn  *core.Runner
	res core.FaultResult
}

// NewWorkerCtx returns a fresh worker context.
func NewWorkerCtx() *WorkerCtx { return &WorkerCtx{rn: core.NewRunner()} }

// RunCellReduce executes one plain cell's trials on w — cfg.Trials of
// them, or an adaptive count under an enabled cfg.Stop rule — folding
// every result in trial order. idx is the cell index stamped on events
// and passed to fold — callers running a sub-set of a larger grid pass
// the absolute index, so no remapping layer is needed. Trial seeds
// derive from (cfg.Seed, cell.Key, trial) alone: for a fixed cfg the
// fold sequence and the emitted events are byte-identical no matter
// which worker runs the cell or in what order cells are claimed. res is
// w's buffer, valid only for the duration of the call; fold must copy
// whatever needs to survive.
func RunCellReduce(cfg Config, w *WorkerCtx, cell *Cell, idx int, fold func(cell, trial int, res *core.RunResult) error) error {
	if cell.RunOn == nil {
		return fmt.Errorf("cell %q has no RunOn", cell.Key)
	}
	return runCell(cfg.WithDefaults(), w, cell, idx, func(trial int, res *core.FaultResult) error {
		return fold(idx, trial, &res.RunResult)
	})
}

// RunFaultCellReduce is RunCellReduce for injected-trial cells (cells
// that set RunFaultOn): every result — the final run outcome plus the
// per-injection recovery episodes — streams through fold.
func RunFaultCellReduce(cfg Config, w *WorkerCtx, cell *Cell, idx int, fold func(cell, trial int, res *core.FaultResult) error) error {
	if cell.RunFaultOn == nil {
		return fmt.Errorf("cell %q has no RunFaultOn", cell.Key)
	}
	return runCell(cfg.WithDefaults(), w, cell, idx, func(trial int, res *core.FaultResult) error {
		return fold(idx, trial, res)
	})
}

// runCell is the cell loop: it emits cell-start, then per trial
// trial-start, the trial itself, trial-finish and the fold, applies the
// stop rule, and emits cell-finish with the realized trial count. A
// plain cell fills only the RunResult embedded in w.res, and its
// trial-finish carries Count 0 where a faulted cell's carries the
// injections performed; nothing else differs between the two.
func runCell(cfg Config, w *WorkerCtx, cell *Cell, idx int, fold func(trial int, res *core.FaultResult) error) error {
	cellSeed := rng.DeriveString(cfg.Seed, cell.Key)
	obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindCellStart, Cell: idx, Key: cell.Key, Trial: -1})
	budget := cfg.Trials
	if cfg.Stop.Enabled() {
		budget = cfg.Stop.Max
	}
	res := &w.res
	var rounds stats.Stream
	realized := 0
	for trial := 0; trial < budget; trial++ {
		seed := rng.Derive(cellSeed, uint64(trial))
		obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindTrialStart, Cell: idx, Key: cell.Key, Trial: trial, Seed: seed})
		var err error
		injections := 0
		if cell.RunFaultOn != nil {
			err = cell.RunFaultOn(w.rn, trial, seed, res)
			injections = res.Injections
		} else {
			err = cell.RunOn(w.rn, trial, seed, &res.RunResult)
		}
		if err != nil {
			return fmt.Errorf("cell %q trial %d: %w", cell.Key, trial, err)
		}
		obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindTrialFinish, Cell: idx, Key: cell.Key, Trial: trial,
			Silent: res.Silent, Legit: res.LegitimateAtSilence,
			Step: res.StepsToSilence, Round: res.RoundsToSilence, Count: injections})
		if err := fold(trial, res); err != nil {
			return fmt.Errorf("cell %q trial %d: %w", cell.Key, trial, err)
		}
		realized = trial + 1
		if cfg.Stop.Enabled() {
			rounds.Add(float64(res.RoundsToSilence))
			if cfg.Stop.done(realized, &rounds) {
				break
			}
		}
	}
	obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindCellFinish, Cell: idx, Key: cell.Key, Trial: -1, Count: realized})
	return nil
}

// RunCellsReduce executes cfg.Trials trials of every cell (or an
// adaptive count under an enabled cfg.Stop rule) and streams every
// result through fold instead of materializing the grid: memory stays
// O(cells + workers) instead of O(cells × trials × n). It is
// RunCellReduce over every cell, each worker of the pool on its own
// WorkerCtx; when cfg.Observer is set, a cell's events all come from
// the one worker that owns it, in trial order.
//
// Scheduling is cell-affine — one worker owns all trials of a cell,
// running them in trial order on its reusable Runner with the trial
// seeds of the package comment — so fold(cell, trial, res) is invoked in
// increasing trial order within each cell and aggregation is
// deterministic at every Parallelism. fold runs concurrently for
// DIFFERENT cells (never for the same cell): per-cell accumulators
// indexed by cell need no locking, anything shared across cells does.
//
// Cell affinity means effective parallelism is bounded by len(cells)
// (the registry's grids have tens of cells, comfortably above typical
// core counts).
func RunCellsReduce(cfg Config, cells []Cell, fold func(cell, trial int, res *core.RunResult) error) error {
	cfg = cfg.WithDefaults()
	return ForEachWorker(cfg.Parallelism, len(cells), func(w *WorkerCtx, i int) error {
		return RunCellReduce(cfg, w, &cells[i], i, fold)
	})
}

// RunFaultCellsReduce is RunCellsReduce for injected trials: every cell
// must set RunFaultOn. Scheduling, trial seeds, cell affinity,
// sequential stopping, events and the fold's ordering/concurrency
// contract are exactly RunCellsReduce's.
func RunFaultCellsReduce(cfg Config, cells []Cell, fold func(cell, trial int, res *core.FaultResult) error) error {
	cfg = cfg.WithDefaults()
	return ForEachWorker(cfg.Parallelism, len(cells), func(w *WorkerCtx, i int) error {
		return RunFaultCellReduce(cfg, w, &cells[i], i, fold)
	})
}

// ForEach runs fn(0..n-1) on up to `workers` goroutines (<=0 selects
// GOMAXPROCS). After the first error, idle workers stop picking up new
// jobs; in-flight jobs run to completion. Among the errors observed, the
// one with the lowest job index is returned.
func ForEach(workers, n int, fn func(i int) error) error {
	return forEachCtx(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachWorker is ForEach for cell jobs: each pool worker builds one
// WorkerCtx and hands it to every job it runs, so a job can call
// RunCellReduce or RunFaultCellReduce on it.
func ForEachWorker(workers, n int, fn func(w *WorkerCtx, i int) error) error {
	return forEachCtx(workers, n, NewWorkerCtx, fn)
}

// forEachCtx is ForEach with a lazily-built per-worker context: every
// worker goroutine calls newCtx once and passes the context to each job
// it executes, giving jobs worker-affine reusable state (the trial
// engine's *core.Runner) without synchronization.
func forEachCtx[T any](workers, n int, newCtx func() T, fn func(ctx T, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ctx := newCtx()
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		errIdx   = n
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ctx := newCtx()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(ctx, i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
