// Package engine is the parallel sharded trial engine shared by the
// experiment registry (internal/experiment) and the campaign subsystem
// (internal/campaign). Every cell — one protocol family on one graph
// under one scheduler, optionally disturbed by a fault or churn
// adversary — runs its Config.Trials trials on one worker of a pool of
// Config.Parallelism goroutines. Each worker owns one reusable
// *core.Runner (recorder, simulator, scheduler, configuration buffers),
// so the steady-state trial loop allocates nothing; results stream
// through a fold without being retained.
//
// There is one cell shape: a Key and a Run closure filling a
// *core.FaultResult (a plain trial leaves its fault side zero). NewCell
// builds that closure from a Scenario and is the one place a trial's
// scheduler, adversaries and core.RunOptions are assembled: a campaign
// Instance builds every campaign cell with it (the registry's included),
// E13 its transformer cells. There are three ways to run: RunCell (one
// cell's trials on a caller-owned worker), RunCells
// (every cell on the pool) and ForEachWorker (the pool itself, for
// callers that schedule cells or other jobs themselves).
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
//
// engine imports core, sched, fault and the protocol packages; it must
// not import campaign, experiment or service.
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

// StopRule is the sequential trial-stopping criterion of the cell loop:
// instead of a fixed Config.Trials budget, a cell keeps running trials
// until the normal-approximation 95% confidence interval on its mean
// rounds-to-silence is at most HalfWidth wide (half-width), bounded
// below by Min and above by Max trials. Low-variance cells stop early; a
// cell whose interval never tightens runs exactly Max trials. Trials
// that exhaust the step budget fold their censored round count like any
// other observation, so a diverging cell cannot stall the rule.
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
	// cell (default 5). A cell runs fewer under an enabled Stop rule
	// (which replaces the fixed budget with its Min..Max bounds).
	Trials int
	// MaxSteps is the per-run step budget (default 1_000_000).
	MaxSteps int
	// Parallelism is the number of worker goroutines the trial pool uses
	// (default runtime.GOMAXPROCS(0)). Results are identical for every
	// value; see the package documentation.
	Parallelism int
	// Observer receives structured run events (nil: no observation, the
	// free default). RunCell emits cell-start, trial-start, trial-finish
	// and cell-finish; core-level diagnostics (silence, injections,
	// recovery episodes) come from the trial closures NewCell builds,
	// which thread an obs.Scope into core.RunOptions.Events.
	Observer obs.Observer
	// Stop, when enabled, replaces the fixed Trials budget with
	// sequential stopping; see StopRule.
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
// derivation plus the function executing one trial on a worker's
// reusable Runner. Different cells run concurrently, so what their
// closures share (systems, graphs) must be immutable after construction.
type Cell struct {
	// Key identifies the cell in the experiment grid; distinct cells of
	// one run must use distinct keys or they will share trial seeds.
	Key string
	// Run executes one trial, filling res in place: the cell loop passes
	// the worker's reused buffer, which the fold reads before the next
	// trial overwrites it. A plain trial fills the embedded RunResult and
	// zeroes the rest (core.Runner.Trial under an empty plan does both).
	Run func(rn *core.Runner, trial int, seed uint64, res *core.FaultResult) error
}

// Fold receives every trial result of a run, in increasing trial order
// within each cell. res is the worker's buffer, valid only for the
// duration of the call: a fold copies whatever needs to survive. Under
// RunCells folds of DIFFERENT cells run concurrently (never two of the
// same cell): per-cell accumulators indexed by cell need no locking,
// anything shared across cells does.
type Fold func(cell, trial int, res *core.FaultResult) error

// WorkerCtx is the reusable per-worker state of the cell loop: the
// Runner every trial executes on and the result buffer every trial
// fills. The pool creates one per worker goroutine; callers that
// schedule cells themselves (bench/'s traced pass) do the same and reuse
// it across every cell that worker claims.
type WorkerCtx struct {
	rn  *core.Runner
	res core.FaultResult
}

// NewWorkerCtx returns a fresh worker context.
func NewWorkerCtx() *WorkerCtx { return &WorkerCtx{rn: core.NewRunner()} }

// RunCell is the cell loop: it executes one cell's trials on w —
// cfg.Trials of them, or an adaptive count under an enabled cfg.Stop
// rule — emitting cell-start, then per trial trial-start, the trial
// itself, trial-finish (Count: the injections performed, 0 for a plain
// trial) and the fold, and cell-finish with the realized trial count.
// idx is the cell index stamped on events and passed to fold — callers
// running a sub-set of a larger grid pass the absolute index, so no
// remapping layer is needed. Trial seeds derive from (cfg.Seed,
// cell.Key, trial) alone: for a fixed cfg the fold sequence and the
// emitted events are byte-identical no matter which worker runs the cell
// or in what order cells are claimed.
func RunCell(cfg Config, w *WorkerCtx, cell *Cell, idx int, fold Fold) error {
	if cell.Run == nil {
		return fmt.Errorf("cell %q has no Run", cell.Key)
	}
	cfg = cfg.WithDefaults()
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
		if err := cell.Run(w.rn, trial, seed, res); err != nil {
			return fmt.Errorf("cell %q trial %d: %w", cell.Key, trial, err)
		}
		obs.Emit(cfg.Observer, obs.Event{Kind: obs.KindTrialFinish, Cell: idx, Key: cell.Key, Trial: trial,
			Silent: res.Silent, Legit: res.LegitimateAtSilence,
			Step: res.StepsToSilence, Round: res.RoundsToSilence, Count: res.Injections})
		if err := fold(idx, trial, res); err != nil {
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

// RunCells executes every cell's trials and streams every result through
// fold instead of materializing the grid: memory stays O(cells +
// workers) instead of O(cells × trials × n). It is RunCell over every
// cell, each worker of the pool on its own WorkerCtx.
//
// Scheduling is cell-affine — one worker owns all trials of a cell — so
// a cell's events all come from that worker, in trial order, and
// aggregation is deterministic at every Parallelism. Cell affinity means
// effective parallelism is bounded by len(cells) (the registry's grids
// have tens of cells, comfortably above typical core counts).
func RunCells(cfg Config, cells []Cell, fold Fold) error {
	cfg = cfg.WithDefaults()
	return ForEachWorker(cfg.Parallelism, len(cells), func(w *WorkerCtx, i int) error {
		return RunCell(cfg, w, &cells[i], i, fold)
	})
}

// ForEachWorker runs fn(w, 0..n-1) on up to `workers` goroutines (<=0
// selects GOMAXPROCS), each with one WorkerCtx of its own that it hands
// to every job it runs, so a job can call RunCell on it. After the first
// error, idle workers stop picking up new jobs; in-flight jobs run to
// completion. Among the errors observed, the one with the lowest job
// index is returned.
func ForEachWorker(workers, n int, fn func(w *WorkerCtx, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		w := NewWorkerCtx()
		for i := 0; i < n; i++ {
			if err := fn(w, i); err != nil {
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
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			w := NewWorkerCtx()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(w, i); err != nil {
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
