package experiment

import (
	"repro/internal/core"
	"repro/internal/engine"
)

// The parallel sharded trial engine lives in internal/engine (shared
// with the campaign subsystem); this file keeps the experiment-facing
// surface as thin aliases so the registry's experiments read exactly as
// before. See the engine package documentation for the determinism
// contract: per-trial seeds derive from (Config.Seed, cell key, trial
// index) alone, so tables are byte-identical at every Parallelism.

// Cell is one unit of the experiment grid (engine.Cell).
type Cell = engine.Cell

// ProtoCell describes a (graph, protocol family, scheduler) cell
// (engine.ProtoCell).
type ProtoCell = engine.ProtoCell

// engineConfig projects the experiment configuration onto the trial
// engine's (Quick only affects the graph suite, not the engine).
func (c Config) engineConfig() engine.Config {
	return engine.Config{
		Seed:        c.Seed,
		Trials:      c.Trials,
		MaxSteps:    c.MaxSteps,
		Parallelism: c.Parallelism,
		Observer:    c.Observer,
	}
}

// RunCells executes cfg.Trials trials of every cell on the worker pool
// and returns the results indexed [cell][trial].
func RunCells(cfg Config, cells []Cell) ([][]*core.RunResult, error) {
	return engine.RunCells(cfg.engineConfig(), cells)
}

// RunCellsReduce executes cfg.Trials trials of every cell and streams
// every result through fold; see engine.RunCellsReduce for the ordering
// and concurrency contract.
func RunCellsReduce(cfg Config, cells []Cell, fold func(cell, trial int, res *core.RunResult) error) error {
	return engine.RunCellsReduce(cfg.engineConfig(), cells, fold)
}

// RunFaultCellsReduce is RunCellsReduce for injected trials; see
// engine.RunFaultCellsReduce.
func RunFaultCellsReduce(cfg Config, cells []Cell, fold func(cell, trial int, res *core.FaultResult) error) error {
	return engine.RunFaultCellsReduce(cfg.engineConfig(), cells, fold)
}

// RunProtoCells builds each cell's system once and fans all trials out
// across the pool: the workhorse behind the per-graph loops of E1-E15.
func RunProtoCells(cfg Config, specs []ProtoCell) ([][]*core.RunResult, error) {
	return engine.RunProtoCells(cfg.engineConfig(), specs)
}

// RunProtoCellsReduce is the streaming form of RunProtoCells.
func RunProtoCellsReduce(cfg Config, specs []ProtoCell, fold func(cell, trial int, res *core.RunResult) error) error {
	return engine.RunProtoCellsReduce(cfg.engineConfig(), specs, fold)
}

// forEach runs fn(0..n-1) on up to `workers` goroutines (engine.ForEach).
func forEach(workers, n int, fn func(i int) error) error {
	return engine.ForEach(workers, n, fn)
}
