package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// DefaultSchedName names the scheduler used when a cell does not choose
// one: the paper's distributed fair scheduler.
const DefaultSchedName = "random-subset"

// Scenario describes every trial of one cell: the system, the daemon
// driving it, where a trial starts and what disturbs it. NewCell turns
// it into the cell's per-trial closure.
type Scenario struct {
	// Key is the cell key (seed derivation, events) and Index the cell
	// index the trials' diagnostic events carry: the absolute index the
	// caller also passes to RunCell.
	Key   string
	Index int
	// System is the protocol instance; its spec's predicate is the one
	// evaluated on a trial's final silent configuration.
	System *model.System
	// Daemon names the scheduler, a sched.ByName name ("" selects
	// DefaultSchedName). One instance per worker is rewound to each
	// trial's seed.
	Daemon string
	// SuffixRounds is core.RunOptions' (0: no post-silence suffix).
	SuffixRounds int
	// Snapshot, when non-nil, is the configuration every trial starts
	// from (a copy of it); nil draws a uniformly random configuration
	// from the trial seed.
	Snapshot *model.Config
	// Adversary/K/Schedule name the state adversary (fault.ByName) and
	// when it strikes; "" runs without state faults.
	Adversary string
	K         int
	Schedule  fault.Schedule
	// Churn/ChurnK/ChurnSchedule name the topology churn adversary
	// (fault.ChurnByName) and when it fires; "" keeps the topology static.
	Churn         string
	ChurnK        int
	ChurnSchedule fault.Schedule
}

// NewCell builds the cell that runs sc's trials. With neither adversary
// the fault plan is empty and every trial is a plain one; nothing else
// distinguishes the two. cfg is read when a trial runs, not here: its
// MaxSteps bounds the trial and its Observer receives the trial's
// diagnostic events, so a caller that binds an observer after building
// its cells (campaign.Plan.SetObserver) passes the Config it will write.
// Unknown daemon and adversary names are refused here, so the trial
// closure cannot fail on them.
func NewCell(cfg *Config, sc Scenario) (Cell, error) {
	if sc.System == nil {
		return Cell{}, fmt.Errorf("engine: cell %q has no system", sc.Key)
	}
	daemon := sc.Daemon
	if daemon == "" {
		daemon = DefaultSchedName
	}
	if _, err := sched.ByName(daemon, 0); err != nil {
		return Cell{}, err
	}
	mkSched := func(seed uint64) model.Scheduler {
		s, _ := sched.ByName(daemon, seed)
		return s
	}
	var mkAdv func() fault.Adversary
	if sc.Adversary != "" {
		if _, err := fault.ByName(sc.Adversary, sc.K); err != nil {
			return Cell{}, err
		}
		mkAdv = func() fault.Adversary {
			a, _ := fault.ByName(sc.Adversary, sc.K)
			return a
		}
	}
	var mkChurn func() fault.ChurnAdversary
	if sc.Churn != "" {
		if _, err := fault.ChurnByName(sc.Churn, sc.ChurnK); err != nil {
			return Cell{}, err
		}
		mkChurn = func() fault.ChurnAdversary {
			a, _ := fault.ChurnByName(sc.Churn, sc.ChurnK)
			return a
		}
	}
	// A worker keeps one adversary per key across the cells it claims.
	advKey := fmt.Sprintf("%s/%d", sc.Adversary, sc.K)
	churnKey := fmt.Sprintf("churn:%s/%d", sc.Churn, sc.ChurnK)
	return Cell{
		Key: sc.Key,
		Run: func(rn *core.Runner, trial int, seed uint64, res *core.FaultResult) error {
			var plan fault.Plan
			if mkAdv != nil {
				plan.Adversary, plan.Schedule = rn.Adversary(advKey, mkAdv), sc.Schedule
			}
			if mkChurn != nil {
				plan.Churn, plan.ChurnSchedule = rn.ChurnAdversary(churnKey, mkChurn), sc.ChurnSchedule
			}
			return rn.Trial(sc.System, sc.Snapshot, core.RunOptions{
				Scheduler:    rn.Scheduler(daemon, seed, mkSched),
				Seed:         seed,
				MaxSteps:     cfg.MaxSteps,
				SuffixRounds: sc.SuffixRounds,
				Events:       obs.Scope{Obs: cfg.Observer, Cell: sc.Index, Key: sc.Key, Trial: trial},
			}, plan, res)
		},
	}, nil
}

// ProtoCell names one (graph, protocol family) pair SilentSnapshots
// warms up.
type ProtoCell struct {
	Graph  *graph.Graph
	Family string
}

// protoCells expands specs into plain cells from random starts under the
// default daemon, building each cell's system once. The cell key is
// "graph|family|random-subset|0" — the canonical proto-cell key, which
// is also the default key of a plain campaign cell on the same graph and
// family, so a snapshot warm-up replays that cell's trials.
func protoCells(cfg Config, specs []ProtoCell) ([]Cell, error) {
	cfg = cfg.WithDefaults()
	cells := make([]Cell, len(specs))
	for i, sp := range specs {
		sys, err := Build(sp.Graph, sp.Family, nil)
		if err != nil {
			return nil, err
		}
		cells[i], err = NewCell(&cfg, Scenario{
			Key:   fmt.Sprintf("%s|%s|%s|0", sp.Graph.Name(), sp.Family, DefaultSchedName),
			Index: i, System: sys,
		})
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
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
	cells, err := protoCells(cfg, specs)
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
		res := &w.res
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := cell.Run(w.rn, trial, rng.Derive(cellSeed, uint64(trial)), res); err != nil {
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
