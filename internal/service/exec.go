package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ErrDrained reports a run stopped by shutdown before every cell
// completed. Cells finished before the drain are persisted in the cache
// backend, so a restarted daemon re-submitted the same spec resumes
// from them and produces byte-identical final output.
var ErrDrained = errors.New("service: run drained before completion")

// ExecOptions configures one Execute call.
type ExecOptions struct {
	// Workers is the number of in-process workers the coordinator feeds
	// (< 1: GOMAXPROCS). Output bytes are identical for every value.
	Workers int
	// Steal overrides the work-stealing victim policy (nil: StealLargest).
	// Output bytes are identical for every policy.
	Steal StealPolicy
	// Cache is the shared result backend (nil: caching disabled).
	Cache campaign.Backend
	// Observer receives the run's events; cached cells replay their
	// canonical lifecycle exactly as campaign.Plan.Run does.
	Observer obs.Observer
}

// Execute runs a compiled plan to completion on a work-stealing worker
// pool, mirroring campaign.Plan.Run's output contract: the returned
// Outcome's records — and the canonical event stream — are
// byte-identical to Plan.Run at the same seed, for every worker count,
// steal schedule and cache state. Canceling ctx drains: workers finish
// (and persist) the cell they are on, then Execute returns ErrDrained.
func Execute(ctx context.Context, p *campaign.Plan, opts ExecOptions) (*campaign.Outcome, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.SetObserver(opts.Observer)
	out := &campaign.Outcome{Plan: p, Results: make([]campaign.CellResult, len(p.Cells))}
	obs.Emit(opts.Observer, obs.Event{
		Kind: obs.KindCampaignStart, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: len(p.Cells),
	})

	// Cache pass (sequential, cheap): serve what's known, replaying the
	// canonical events cached cells would have emitted.
	var missing []int
	for i := range p.Cells {
		cs := &p.Cells[i]
		out.Results[i].Cell = cs
		if opts.Cache != nil {
			recs, err := p.LookupCached(opts.Cache, i)
			if err != nil {
				obs.Emit(opts.Observer, obs.Event{Kind: obs.KindCacheCorrupt, Cell: cs.Index, Key: cs.Key, Trial: -1})
			}
			if recs != nil {
				out.Results[i].Records = recs
				out.Results[i].FromCache = true
				out.CacheHits++
				p.ReplayCell(opts.Observer, i, recs)
				continue
			}
			obs.Emit(opts.Observer, obs.Event{Kind: obs.KindCacheMiss, Cell: cs.Index, Key: cs.Key, Trial: -1})
		}
		missing = append(missing, i)
	}

	// Compute pass: the coordinator hands positions into missing to the
	// workers. Each worker persists a cell to the cache the moment it is
	// computed — that is what makes a drain resumable — and writes its
	// records into the cell's own Outcome slot, so the merge is the
	// identity and cannot depend on the steal schedule.
	if len(missing) > 0 {
		if err := p.Materialize(missing); err != nil {
			return nil, err
		}
		coord := NewCoordinator(len(missing), workers, opts.Steal)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wc := engine.NewWorkerCtx()
				for {
					// The drain check is synchronous with ctx: once cancel
					// returns, no worker claims another cell — each finishes
					// (and persists) the one it is on, then exits here.
					if ctx.Err() != nil {
						return
					}
					pos, ok := coord.Next(w)
					if !ok {
						return
					}
					i := missing[pos]
					recs, err := p.ComputeCell(wc, i, 0)
					if err != nil {
						errs[w] = err
						coord.Stop()
						return
					}
					if opts.Cache != nil {
						if err := p.StoreCell(opts.Cache, i, recs); err != nil {
							errs[w] = fmt.Errorf("cell %q: %w", p.Cells[i].Key, err)
							coord.Stop()
							return
						}
					}
					out.Results[i].Records = recs
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if ctx.Err() != nil {
			// A cancel that lands after the last cell completed is not a
			// drain: the output is whole.
			left := 0
			for _, i := range missing {
				if out.Results[i].Records == nil {
					left++
				}
			}
			if left > 0 {
				return nil, fmt.Errorf("%w: %d of %d cells remain", ErrDrained, left, len(p.Cells))
			}
		}
		if opts.Cache != nil {
			out.CacheMisses = len(missing)
		}
	}
	obs.Emit(opts.Observer, obs.Event{
		Kind: obs.KindCampaignFinish, Cell: -1, Key: p.Spec.Name, Trial: -1, Count: len(p.Cells),
	})
	return out, nil
}
