package campaign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ErrDrained reports a run stopped by its context before every owned
// cell completed. Cells finished before the drain are in the cache
// backend, so the same spec run again over that backend resumes from
// them and produces byte-identical final output.
var ErrDrained = errors.New("campaign: run drained before completion")

// RunOptions configures one execution of a compiled plan.
type RunOptions struct {
	// Shard/Shards selects a K-of-N slice of the campaign: shard i of n
	// owns the contiguous cell-index range [i*C/n, (i+1)*C/n). Shards
	// <= 1 runs everything. The partition is a pure function of the
	// cell order, so separate processes (or machines) given distinct
	// shards compute disjoint cells, and concatenating their outputs in
	// shard order reproduces the unsharded output byte for byte.
	Shard, Shards int
	// Workers is the number of pool workers computing the missing cells
	// (< 1: the parallelism the plan was compiled with). Output bytes
	// are identical for every value.
	Workers int
	// Cache is the content-addressed result backend (nil: caching
	// disabled): completed cells persist under their fingerprints, and a
	// re-run (or a grown campaign sharing cells) recomputes only what is
	// missing. The CLI passes a DirBackend, the campaign service its
	// shared cross-run backend.
	Cache Backend
	// Observer receives the run's structured events (nil: none). Cells
	// served from the cache replay their canonical lifecycle events from
	// the stored records — with the same trial seeds the engine would
	// derive — so a ReplaySink's canonical log is byte-identical between
	// cold-cache and warm-cache runs (and across worker counts; see
	// internal/obs).
	Observer obs.Observer
}

// CellResult pairs one owned cell with its per-trial records.
type CellResult struct {
	Cell *CellSpec
	// Records holds one entry per trial, in trial order.
	Records []TrialRecord
	// FromCache reports whether the records were loaded rather than
	// computed.
	FromCache bool
}

// Outcome is the result of running a plan: the owned cells' records in
// deterministic cell order, plus cache statistics.
type Outcome struct {
	Plan *Plan
	// Results covers exactly the owned shard, ordered by cell index.
	Results []CellResult
	// CacheHits/CacheMisses count owned cells served from / written to
	// the cache (both zero when caching is disabled).
	CacheHits, CacheMisses int
	// GraphsBuilt counts the topologies the run built: one per (graph
	// line, size) point a computed cell runs on, none for a run served
	// wholly from the cache.
	GraphsBuilt int
}

// recordBounds returns the record-count bounds a cache entry must
// satisfy: a fixed budget is exact, an adaptive cell's realized count
// lands anywhere in the stop rule's bounds (the count itself
// round-trips as len(Records)).
func (p *Plan) recordBounds() (minRecs, maxRecs int) {
	if p.cfg.Stop.Enabled() {
		return p.cfg.Stop.Min, p.cfg.Stop.Max
	}
	return p.cfg.Trials, p.cfg.Trials
}

// LookupCached consults the backend for cell i's records. It returns
// (records, nil) on a hit, (nil, nil) on a clean miss (absent or stale
// entry), and (nil, err) when the entry exists but is unreadable or
// undecodable — the caller treats that as a miss and surfaces the
// corruption as an obs.KindCacheCorrupt diagnostic.
func (p *Plan) LookupCached(be Backend, i int) ([]TrialRecord, error) {
	minRecs, maxRecs := p.recordBounds()
	return loadCache(be, p.cellFingerprint(&p.Cells[i]), minRecs, maxRecs)
}

// StoreCell persists cell i's computed records in the backend.
func (p *Plan) StoreCell(be Backend, i int, records []TrialRecord) error {
	return storeCache(be, p.cellFingerprint(&p.Cells[i]), records)
}

// Run is Execute without a context: nothing can drain it.
func (p *Plan) Run(opts RunOptions) (*Outcome, error) {
	return Execute(context.Background(), p, opts)
}

// Execute runs the plan's owned shard on the engine pool, consulting the
// cache first when enabled; it is the one executor behind sscampaign and
// sscampaignd. It only reads p: what it builds for the cells it computes
// is an Instance of its own, so executions of one plan may overlap.
// Records are deterministic: for a fixed campaign file the bytes of
// every record, and the canonical event stream, are identical across
// worker counts, sharding and cache state. Canceling ctx drains: no new
// cell starts, the cells in flight finish and are stored, and Execute
// returns ErrDrained (a cancel that lands after the last cell started is
// not a drain: the output is whole).
func Execute(ctx context.Context, p *Plan, opts RunOptions) (*Outcome, error) {
	lo, hi, err := shardRange(len(p.Cells), opts.Shard, opts.Shards)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = p.cfg.Parallelism
	}
	be := opts.Cache
	out := &Outcome{Plan: p, Results: make([]CellResult, hi-lo)}
	obs.Emit(opts.Observer, obs.Event{
		Kind: obs.KindCampaignStart, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: hi - lo,
	})

	// Cache pass: fill what's already known, collect the rest. Hits
	// replay their canonical events so observers see the full campaign
	// regardless of cache state.
	var missing []int // absolute cell indices
	for i := range out.Results {
		cs := &p.Cells[lo+i]
		out.Results[i].Cell = cs
		if be != nil {
			recs, err := p.LookupCached(be, lo+i)
			if err != nil {
				obs.Emit(opts.Observer, obs.Event{Kind: obs.KindCacheCorrupt, Cell: cs.Index, Key: cs.Key, Trial: -1})
			}
			if recs != nil {
				out.Results[i].Records = recs
				out.Results[i].FromCache = true
				out.CacheHits++
				p.ReplayCell(opts.Observer, lo+i, recs)
				continue
			}
			obs.Emit(opts.Observer, obs.Event{Kind: obs.KindCacheMiss, Cell: cs.Index, Key: cs.Key, Trial: -1})
		}
		missing = append(missing, lo+i)
	}

	// Compute pass: each missing cell runs on the engine pool and is
	// stored the moment it finishes, so a run that fails, drains or is
	// killed later keeps what it computed and the next run resumes from
	// it. Running a sub-set never perturbs results — each cell's trial
	// seeds derive from its key alone — and each cell's records land in
	// its own Outcome slot, so completion order cannot either. Graphs,
	// snapshot warm-ups and systems are built here, for exactly the cells
	// about to execute: a fully-cached resume, and shards owning none of
	// a cell, never pay for it.
	if len(missing) > 0 {
		in, err := p.Instantiate(opts.Observer, missing)
		if err != nil {
			return nil, err
		}
		out.GraphsBuilt = in.graphsBuilt
		err = engine.ForEachWorker(workers, len(missing), func(w *engine.WorkerCtx, j int) error {
			// The drain is a job that fails before it starts: the pool
			// stops claiming after the first failure and lets the cells in
			// flight finish.
			if ctx.Err() != nil {
				return ErrDrained
			}
			i := missing[j]
			recs, err := in.computeCell(w, i)
			if err != nil {
				return err
			}
			if be != nil {
				if err := p.StoreCell(be, i, recs); err != nil {
					return fmt.Errorf("campaign: store cell %q: %w", p.Cells[i].Key, err)
				}
			}
			out.Results[i-lo].Records = recs
			return nil
		})
		if errors.Is(err, ErrDrained) {
			left := 0
			for _, i := range missing {
				if out.Results[i-lo].Records == nil {
					left++
				}
			}
			return nil, fmt.Errorf("%w: %d of %d cells remain", ErrDrained, left, hi-lo)
		}
		if err != nil {
			return nil, err
		}
		if be != nil {
			out.CacheMisses = len(missing)
		}
	}
	obs.Emit(opts.Observer, obs.Event{
		Kind: obs.KindCampaignFinish, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: hi - lo,
	})
	return out, nil
}

// ReplayCell emits cached cell i's canonical lifecycle events,
// reconstructed from its stored records: the same cell-start,
// trial-start (with the engine's exact derived seeds), trial-finish and
// cell-finish a compute pass would emit. Diagnostic detail (silence
// instants, episodes) is not stored, so only a KindCacheHit marks the
// difference — and that kind never enters canonical logs. Exported for
// bench/, which times the replay as a step of its own.
func (p *Plan) ReplayCell(o obs.Observer, i int, recs []TrialRecord) {
	if o == nil {
		return
	}
	cs := &p.Cells[i]
	obs.Emit(o, obs.Event{Kind: obs.KindCacheHit, Cell: cs.Index, Key: cs.Key, Trial: -1, Count: len(recs)})
	obs.Emit(o, obs.Event{Kind: obs.KindCellStart, Cell: cs.Index, Key: cs.Key, Trial: -1})
	cellSeed := rng.DeriveString(p.cfg.Seed, cs.Key)
	for t := range recs {
		r := &recs[t]
		obs.Emit(o, obs.Event{
			Kind: obs.KindTrialStart, Cell: cs.Index, Key: cs.Key, Trial: t,
			Seed: rng.Derive(cellSeed, uint64(t)),
		})
		obs.Emit(o, obs.Event{
			Kind: obs.KindTrialFinish, Cell: cs.Index, Key: cs.Key, Trial: t,
			Silent: r.Silent, Legit: r.Legitimate,
			Step: r.Steps, Round: r.Rounds, Count: r.Injections,
		})
	}
	obs.Emit(o, obs.Event{Kind: obs.KindCellFinish, Cell: cs.Index, Key: cs.Key, Trial: -1, Count: len(recs)})
}

// Replay emits, from the outcome's records, exactly what an Execute
// that finds every owned cell in the cache emits: campaign-start, each
// result's cell as ReplayCell replays it, and campaign-finish. It only
// reads o, so an outcome kept in memory can feed any number of
// observers, concurrently too, without a backend.
func (o *Outcome) Replay(ob obs.Observer) {
	p := o.Plan
	obs.Emit(ob, obs.Event{Kind: obs.KindCampaignStart, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: len(o.Results)})
	for i := range o.Results {
		r := &o.Results[i]
		p.ReplayCell(ob, r.Cell.Index, r.Records)
	}
	obs.Emit(ob, obs.Event{Kind: obs.KindCampaignFinish, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: len(o.Results)})
}

// shardRange returns the owned [lo, hi) cell-index range. Shards are
// capped at maxCells (more shards than cells could ever exist is a
// driver bug) which also keeps shard*n within int64 on every platform.
func shardRange(n, shard, shards int) (int, int, error) {
	if shards <= 1 {
		if shard != 0 {
			return 0, 0, fmt.Errorf("campaign: shard %d/%d out of range", shard, shards)
		}
		return 0, n, nil
	}
	if shards > maxCells {
		return 0, 0, fmt.Errorf("campaign: %d shards exceed the %d-cell limit", shards, maxCells)
	}
	if shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("campaign: shard %d/%d out of range (want 0 <= shard < shards)", shard, shards)
	}
	lo := int(int64(shard) * int64(n) / int64(shards))
	hi := int(int64(shard+1) * int64(n) / int64(shards))
	return lo, hi, nil
}
