package core

import (
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Runner is a reusable trial-execution context: one resettable recorder,
// simulator, scheduler slot and initial-configuration buffer that
// together make the steady-state trial loop — setup, run-to-silence,
// report — allocation-free.
// The experiment pool builds one Runner per worker and reuses it
// across every trial the worker executes; the free-standing Run keeps its
// one-shot semantics as a thin wrapper over a throwaway Runner.
//
// A Runner is NOT safe for concurrent use. Rebinding it to a different
// system reallocates the per-system buffers, so workers should process
// trials of one cell consecutively (the pool's job order does).
type Runner struct {
	rec *trace.Recorder
	sim model.Simulator

	sys *model.System // system the initial-config buffer is bound to
	cfg *model.Config // runner-owned initial configuration buffer

	schedName string
	sched     model.Scheduler

	advKey string
	adv    fault.Adversary

	churnKey string
	churn    fault.ChurnAdversary

	// dynSys is the runner-owned dynamic copy of dynBase, rebuilt only
	// when the base system changes and topology-reset between trials.
	dynBase *model.System
	dynSys  *model.System

	initSrc  rng.SplitMix
	initRand *rng.Rand

	// fr holds the reusable fault-side state of the trial body; a runner
	// that only ever runs plain trials leaves its buffers nil.
	fr faultRun
}

// NewRunner returns an empty Runner; buffers bind lazily on first use.
func NewRunner() *Runner {
	r := &Runner{}
	r.initRand = rng.FromSource(&r.initSrc)
	return r
}

// InitialConfig returns the runner-owned initial-configuration buffer
// bound to sys (rebuilt only when the system changes or the last trial
// handed its buffer over with none to take back). Its contents are
// unspecified until the caller fills them: callers assemble the trial's
// whole initial configuration in it — model.RandomizeConfig, a
// Config.CopyFrom of a snapshot, then fault injection — and then call
// Run, which adopts the buffer as the execution's live configuration.
func (r *Runner) InitialConfig(sys *model.System) *model.Config {
	if r.sys != sys || r.cfg == nil {
		r.sys = sys
		r.cfg = model.NewZeroConfig(sys)
	}
	return r.cfg
}

// resettableScheduler matches sched.Resettable structurally (core does
// not import internal/sched).
type resettableScheduler interface{ Reset(seed uint64) }

// Scheduler returns the scheduler for a trial: when the runner's cached
// scheduler was built under the same name and supports seed reset, it is
// rewound to seed — equivalent to a fresh construction — and reused;
// otherwise mk(seed) builds and caches a new one. The name must uniquely
// determine mk's behavior (the pool uses its stable scheduler names).
func (r *Runner) Scheduler(name string, seed uint64, mk func(uint64) model.Scheduler) model.Scheduler {
	if r.sched != nil && name != "" && r.schedName == name {
		if rs, ok := r.sched.(resettableScheduler); ok {
			rs.Reset(seed)
			return r.sched
		}
	}
	r.sched = mk(seed)
	r.schedName = name
	return r.sched
}

// Run executes one trial from the runner's initial-configuration buffer
// (see InitialConfig) and fills res in place, reusing res's report
// slices across calls. The buffer the run mutated becomes res.Final, the
// run's own buffer, not a copy: no later trial writes it unless res is
// passed to the runner again, so a result stays valid after the runner's
// next trial into a different result. res's previous Final, if it has
// sys's shape, becomes the runner's next initial-configuration buffer,
// so a loop that reuses res alternates two buffers and allocates none.
// The next trial must refill the buffer. It is the trial body under the
// plan that never strikes.
func (r *Runner) Run(sys *model.System, opts RunOptions, res *RunResult) error {
	return r.trial(sys, opts, fault.Plan{}, res, nil)
}

// RunRandom executes one adversarial trial: the initial configuration is
// drawn uniformly at random from opts.Seed — exactly the configuration
// model.NewRandomConfig(sys, rng.New(opts.Seed)) would build — directly
// into the runner-owned buffer, skipping the one-shot path's defensive
// clone.
func (r *Runner) RunRandom(sys *model.System, opts RunOptions, res *RunResult) error {
	r.randomInitial(sys, opts.Seed)
	return r.Run(sys, opts, res)
}

// randomInitial fills the initial-configuration buffer with the uniformly
// random configuration of seed.
func (r *Runner) randomInitial(sys *model.System, seed uint64) {
	cfg := r.InitialConfig(sys)
	r.initSrc.Reseed(seed)
	model.RandomizeConfig(sys, cfg, r.initRand)
}
