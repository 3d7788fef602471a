package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// DefaultSchedName names the scheduler used when a cell does not choose
// one: the paper's distributed fair scheduler.
const DefaultSchedName = "random-subset"

// DefaultSched builds the default scheduler from a trial seed.
func DefaultSched(seed uint64) model.Scheduler { return sched.NewRandomSubset(seed) }

// ProtoCell describes a (graph, protocol family, scheduler) cell for
// ProtoCells.
type ProtoCell struct {
	Graph  *graph.Graph
	Family string
	// Sched builds the trial's scheduler from the trial seed (nil →
	// DefaultSched). SchedName must name it when Sched is non-nil, so the
	// cell key stays stable (and the per-worker scheduler cache keyed by
	// it stays sound).
	Sched     func(uint64) model.Scheduler
	SchedName string
	// SuffixRounds keeps the run going after silence (see core.RunOptions).
	SuffixRounds int
}

// ProtoCells expands specs into runner-aware pool cells, building each
// cell's system once. The cell key is "graph|family|scheduler|suffix" —
// the canonical proto-cell key every seed stream of the registry and the
// campaign subsystem derives from.
func ProtoCells(cfg Config, specs []ProtoCell) ([]Cell, error) {
	cells := make([]Cell, len(specs))
	for i, sp := range specs {
		sys, legit, err := System(sp.Graph, sp.Family)
		if err != nil {
			return nil, err
		}
		mkSched, schedName := sp.Sched, sp.SchedName
		if mkSched == nil {
			mkSched, schedName = DefaultSched, DefaultSchedName
		}
		suffix := sp.SuffixRounds
		key := fmt.Sprintf("%s|%s|%s|%d", sp.Graph.Name(), sp.Family, schedName, suffix)
		cellIdx := i
		cells[i] = Cell{
			Key: key,
			RunOn: func(rn *core.Runner, trial int, seed uint64, res *core.RunResult) error {
				return rn.RunRandom(sys, core.RunOptions{
					Scheduler:    rn.Scheduler(schedName, seed, mkSched),
					Seed:         seed,
					MaxSteps:     cfg.MaxSteps,
					CheckEvery:   1,
					SuffixRounds: suffix,
					Legitimate:   legit,
					Events:       obs.Scope{Obs: cfg.Observer, Cell: cellIdx, Key: key, Trial: trial},
				}, res)
			},
		}
	}
	return cells, nil
}

// RunProtoCellsReduce builds each cell's system once and folds every
// trial result (see RunCellsReduce for the ordering and concurrency
// contract): the workhorse behind the per-graph loops of E1-E15, whose
// memory is independent of Trials.
func RunProtoCellsReduce(cfg Config, specs []ProtoCell, fold func(cell, trial int, res *core.RunResult) error) error {
	cfg = cfg.WithDefaults()
	cells, err := ProtoCells(cfg, specs)
	if err != nil {
		return err
	}
	return RunCellsReduce(cfg, cells, fold)
}

// SilentSnapshots obtains one legitimate silent configuration per spec:
// the final configuration of the first of the spec's standard adversarial
// trials, in trial order, that ends silent and legitimate. A spec's
// trials run on one worker of the cell-affine pool and stop at that
// first hit, so a warm-up costs the trials up to it, not cfg.Trials,
// which only bounds the search. The trial seeds derive from the cell
// keys alone, so every caller that starts from a snapshot of the same
// (graph, family) sees the same configuration regardless of how the
// warm-ups are batched.
func SilentSnapshots(cfg Config, specs []ProtoCell) ([]*model.Config, error) {
	cfg = cfg.WithDefaults()
	// Warm-ups are infrastructure, not measured trials: they never emit
	// events, so an observed campaign's log covers exactly its own cells.
	cfg.Observer = nil
	cells, err := ProtoCells(cfg, specs)
	if err != nil {
		return nil, err
	}
	out, err := firstSilentLegitimate(cfg, cells)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		if out[i] == nil {
			return nil, fmt.Errorf("engine: %s produced no legitimate silent run on %s", sp.Family, sp.Graph.Name())
		}
	}
	return out, nil
}

// firstSilentLegitimate runs each cell's trials in trial order, with the
// seeds of the cell loop, until one ends silent and legitimate, and
// returns a copy of that trial's final configuration (nil for a cell
// none of whose cfg.Trials trials does).
func firstSilentLegitimate(cfg Config, cells []Cell) ([]*model.Config, error) {
	out := make([]*model.Config, len(cells))
	err := ForEachWorker(cfg.Parallelism, len(cells), func(w *WorkerCtx, i int) error {
		cell := &cells[i]
		cellSeed := rng.DeriveString(cfg.Seed, cell.Key)
		res := &w.res.RunResult
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := cell.RunOn(w.rn, trial, rng.Derive(cellSeed, uint64(trial)), res); err != nil {
				return fmt.Errorf("cell %q trial %d: %w", cell.Key, trial, err)
			}
			if res.Silent && res.LegitimateAtSilence {
				out[i] = res.Final.Clone()
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
