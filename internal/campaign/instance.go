package campaign

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
)

// Instance is what one execution of a Plan builds: the graphs, at-start
// snapshots, protocol systems and trial closures of the cells it was
// made for, with the execution's observer bound into the closures. The
// plan is only read, so instances of one plan run concurrently; Execute
// makes one for the cells that missed the cache and drops it when the
// run ends.
type Instance struct {
	plan *Plan
	cfg  engine.Config // the plan's, with the execution's observer
	// cells and systems are index-aligned with plan.Cells; a cell the
	// instance was not made for has no Run and no system.
	cells   []engine.Cell
	systems []*model.System
	// graphsBuilt counts the topologies the instance built.
	graphsBuilt int
}

// sysKey identifies a (graph, protocol) pair whose system and silent
// snapshot the pair's cells share (both are immutable).
type sysKey struct {
	topo  *topology
	proto string
}

// Instantiate builds the given cells (indices into p.Cells) for one
// execution observed by o: each topology once, each (graph, protocol)
// system once, the silent snapshots of the at-start cells in one warm-up
// batch on those systems, and each cell's trial closure from
// engine.NewCell, the constructor E13's cells come from too. An at-start
// adversary cell starts every trial from its snapshot, every other cell
// from a random configuration, and a closure's diagnostics carry the
// cell's absolute campaign index, as the engine's lifecycle events do.
// Cells left out (cache hits, other shards) cost nothing. What a
// descriptor cannot foresee — a random regular pairing that runs out of
// attempts — fails here.
func (p *Plan) Instantiate(o obs.Observer, cells []int) (*Instance, error) {
	in := &Instance{
		plan:    p,
		cfg:     p.cfg,
		cells:   make([]engine.Cell, len(p.Cells)),
		systems: make([]*model.System, len(p.Cells)),
	}
	in.cfg.Observer = o
	graphs := map[*topology]*graph.Graph{}
	systems := map[sysKey]*model.System{}
	systemFor := func(cs *CellSpec) (*model.System, error) {
		key := sysKey{cs.topo, cs.Protocol}
		if sys, ok := systems[key]; ok {
			return sys, nil
		}
		g, ok := graphs[cs.topo]
		if !ok {
			var err error
			if g, err = cs.topo.desc.Build(); err != nil {
				return nil, fmt.Errorf("campaign: graph %s: %w", cs.GraphLine, err)
			}
			graphs[cs.topo] = g
		}
		sys, err := engine.Build(g, cs.Protocol, nil)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s on %s: %w", cs.Protocol, cs.GraphLine, err)
		}
		systems[key] = sys
		return sys, nil
	}

	// Snapshot warm-up: one batch over the distinct at-start pairs.
	snapshots := map[sysKey]*model.Config{}
	var warm []sysKey
	var specs []engine.ProtoCell
	for _, i := range cells {
		cs := &p.Cells[i]
		key := sysKey{cs.topo, cs.Protocol}
		if _, seen := snapshots[key]; !cs.atStart() || seen {
			continue
		}
		sys, err := systemFor(cs)
		if err != nil {
			return nil, err
		}
		snapshots[key] = nil
		warm = append(warm, key)
		specs = append(specs, engine.ProtoCell{System: sys, Family: cs.Protocol})
	}
	if len(specs) > 0 {
		snaps, err := engine.SilentSnapshots(p.cfg, specs)
		if err != nil {
			return nil, fmt.Errorf("campaign: at-start snapshot warm-up: %w", err)
		}
		for j, key := range warm {
			snapshots[key] = snaps[j]
		}
	}

	for _, i := range cells {
		cs := &p.Cells[i]
		sys, err := systemFor(cs)
		if err != nil {
			return nil, err
		}
		var snapshot *model.Config
		if cs.atStart() {
			snapshot = snapshots[sysKey{cs.topo, cs.Protocol}]
		}
		in.systems[i] = sys
		in.cells[i], err = engine.NewCell(in.cfg, engine.Scenario{
			Key: cs.Key, Index: cs.Index,
			System:       sys,
			Daemon:       cs.Daemon,
			SuffixRounds: cs.suffix,
			Snapshot:     snapshot,
			Adversary:    cs.Adversary, K: cs.K, Schedule: cs.Schedule,
			Churn: cs.ChurnName, ChurnK: cs.ChurnK, ChurnSchedule: cs.ChurnSchedule,
		})
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %q: %w", cs.Key, err)
		}
	}
	in.graphsBuilt = len(graphs)
	return in, nil
}

// RunCells runs the instance's cells on the engine pool under the config
// they were built with, streaming every trial through fold (see
// engine.RunCells). The instance must hold every cell: the registry's
// experiments instantiate them all and run them here, off the cache.
func (in *Instance) RunCells(fold engine.Fold) error {
	return engine.RunCells(in.cfg, in.cells, fold)
}

// System is the protocol system cell i runs on (nil for a cell the
// instance was not made for); its Graph is the cell's topology.
func (in *Instance) System(i int) *model.System { return in.systems[i] }

// computeCell executes cell i's trials on the caller-owned worker
// context, returning the records in trial order. Seeds, events and the
// stop rule are the engine's: the records (and the canonical event
// stream) are byte-identical no matter which worker computes the cell or
// in what order cells are claimed.
//
// A panic inside the cell (a protocol body, an adversary, an observer)
// comes back as an error naming the cell, with no records: Execute stops
// the run on it and stores nothing for the cell, and a daemon's other
// runs are untouched. The worker context is not to be reused after such
// an error.
func (in *Instance) computeCell(w *engine.WorkerCtx, i int) (recs []TrialRecord, err error) {
	cs := &in.plan.Cells[i]
	defer func() {
		if v := recover(); v != nil {
			recs, err = nil, fmt.Errorf("campaign: cell %q panicked: %v", cs.Key, v)
		}
	}()
	recs = make([]TrialRecord, 0, in.cfg.Trials)
	err = engine.RunCell(in.cfg, w, &in.cells[i], cs.Index,
		func(_, _ int, res *core.FaultResult) error {
			var rec TrialRecord
			rec.fill(res)
			recs = append(recs, rec)
			return nil
		})
	return recs, err
}

// SetObserver, Materialize and ComputeCell are bench/'s way through one
// execution, which it times step by step: one-line forwards onto an
// instance the plan keeps for it. They and the two fields they write go
// with bench/'s rewrite (ROADMAP item 3); nothing else writes either.
// ComputeCell's third parameter was a lockstep batch width and is ignored.
func (p *Plan) SetObserver(o obs.Observer) { p.benchObs = o }

func (p *Plan) Materialize(cells []int) (err error) {
	p.bench, err = p.Instantiate(p.benchObs, cells)
	return err
}

func (p *Plan) ComputeCell(w *engine.WorkerCtx, i, _ int) ([]TrialRecord, error) {
	return p.bench.computeCell(w, i)
}
