package model

import (
	"repro/internal/rng"
)

// execOne evaluates p's guards in priority order against ctx's own
// state and pre configuration (neighbors) and applies the first enabled
// action. It returns the fired action index or -1 if p is disabled.
//
// A degree-0 process is disabled by definition: it cannot communicate,
// and protocol guards may assume δ.p >= 1 (the paper's model). Static
// systems never contain one (NewSystem requires min degree 1); under
// dynamic topologies a crashed or fully cut-off process is isolated but
// remains scheduled, and this rule is what keeps it from moving.
func execOne(c *Ctx) int {
	if len(c.nbr) == 0 {
		return -1
	}
	spec := c.sys.spec
	c.inApply = false // a panic may have left a reused context inside Apply
	for i := range spec.Actions {
		c.beginBody()
		if spec.Actions[i].Guard(c) {
			c.inApply = true
			c.beginBody()
			spec.Actions[i].Apply(c)
			c.inApply = false
			return i
		}
	}
	return -1
}

// newCtx builds an execution context for p whose own state is a scratch
// copy taken from cfg. Both rows are carved from one allocation. With
// record set, the context gets its own read aggregator.
func newCtx(sys *System, cfg *Config, p int, r *rng.Rand, record bool) *Ctx {
	comm, internal := cfg.commRow(p), cfg.internalRow(p)
	buf := make([]int, len(comm)+len(internal))
	copy(buf, comm)
	copy(buf[len(comm):], internal)
	c := &Ctx{
		sys:      sys,
		pre:      cfg,
		p:        p,
		nbr:      sys.g.Row(p),
		comm:     buf[:len(comm):len(comm)],
		internal: buf[len(comm):],
		rand:     r,
	}
	if record {
		agg := newReadAgg(sys)
		agg.begin()
		c.agg = &agg
	}
	return c
}

// ExecuteStep performs one scheduler step on cfg in place: every process
// in selected atomically evaluates its guards against the pre-step
// configuration and executes its first enabled action, then all writes
// are committed simultaneously (the paper's distributed scheduler
// semantics: configuration γ_{i+1} is obtained from γ_i after all
// processes in s_i execute one enabled action, if any).
//
// randFor supplies each process's private random stream for this step.
// fired receives the fired action index per selected process (-1 if
// disabled); the returned slice is indexed like selected.
//
// This free function is the reference semantics: fresh contexts per
// call, no arena, no memo. Simulator.Step must produce the same
// configurations and the same Selected/CommWrite stream (the tests hold
// it to that) while allocating nothing after warmup.
func ExecuteStep(sys *System, cfg *Config, selected []int, step int, randFor func(p int) *rng.Rand, obs Observer) []int {
	fired := make([]int, len(selected))
	staged := make([]*Ctx, len(selected))
	for i, p := range selected {
		var r *rng.Rand
		if randFor != nil {
			r = randFor(p)
		}
		c := newCtx(sys, cfg, p, r, obs != nil)
		staged[i] = c
		fired[i] = execOne(c)
		if obs != nil {
			obs.Selected(step, p, c.agg.qs, c.agg.bits, fired[i], 1)
		}
	}
	// Commit all writes simultaneously.
	for i, p := range selected {
		if fired[i] < 0 {
			continue
		}
		c, row := staged[i], cfg.commRow(p)
		if obs != nil {
			for v, nv := range c.comm {
				if ov := row[v]; ov != nv {
					obs.CommWrite(step, p, v, ov, nv)
				}
			}
		}
		copy(row, c.comm)
		copy(cfg.internalRow(p), c.internal)
	}
	return fired
}

// StepProcess executes one atomic step of process p directly on cfg:
// guards are evaluated, the first enabled action applied, and p's state
// written back. It returns the fired action index (-1 if disabled).
//
// Unlike ExecuteStep this mutates cfg immediately; it exists for external
// runtimes (e.g. the goroutine runtime in internal/concurrent) that
// provide their own synchronization. The caller must guarantee exclusive
// access to p's state and read access to the neighbors' communication
// state for the duration of the call.
func StepProcess(sys *System, cfg *Config, p int, r *rng.Rand) int {
	c := newCtx(sys, cfg, p, r, false)
	fired := execOne(c)
	if fired >= 0 {
		copy(cfg.commRow(p), c.comm)
		copy(cfg.internalRow(p), c.internal)
	}
	return fired
}

// EnabledAction returns the index of p's first enabled action in cfg, or
// -1 if p is disabled. The probe is side-effect free and unrecorded: it
// models the scheduler's (and analyst's) omniscience, not process
// communication. It allocates a fresh context per call; cached,
// allocation-free probes are served by EnabledTracker.
func EnabledAction(sys *System, cfg *Config, p int) int {
	if sys.g.Degree(p) == 0 {
		return -1 // isolated: disabled by definition (see execOne)
	}
	c := newCtx(sys, cfg, p, nil, false)
	spec := sys.spec
	for i := range spec.Actions {
		c.beginBody()
		if spec.Actions[i].Guard(c) {
			return i
		}
	}
	return -1
}

// Enabled reports whether p has an enabled action in cfg.
func Enabled(sys *System, cfg *Config, p int) bool {
	return EnabledAction(sys, cfg, p) >= 0
}

// EnabledSet returns the ids of all enabled processes in cfg, in
// ascending order. The result is always non-nil: when no process is
// enabled (a fixpoint), it is an empty slice, so callers can range over
// or serialize it without a nil check. This probe re-derives enabledness
// from scratch; step loops should use Simulator.Tracker instead.
func EnabledSet(sys *System, cfg *Config) []int {
	out := make([]int, 0, sys.N())
	for p := 0; p < sys.N(); p++ {
		if Enabled(sys, cfg, p) {
			out = append(out, p)
		}
	}
	return out
}
