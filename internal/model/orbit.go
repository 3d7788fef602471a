package model

import "fmt"

// orbitProbe is a reusable engine for the frozen-neighborhood orbit
// exploration behind the silence decision procedure (see CommSilent for
// the soundness argument). The one-shot enabledOrbitSilent allocates a
// visited map and string state keys per probe; with silence checked every
// step that dominated the trial loop, so the simulator keeps one probe
// and reuses its buffers: the orbit's states are kept as rows of one
// reused flat slice and compared by value, which serves every state
// width (the transformer's cache variables overflow any fixed-size key).
// Steady-state probes allocate nothing.
//
// A probe may be reused across processes and configurations of one
// system; it is not safe for concurrent use.
type orbitProbe struct {
	sys *System
	// ctx is the reusable evaluation context. Its private own-state rows
	// are the current orbit state: guards cannot write them and Apply
	// moves them to the next one.
	ctx Ctx

	// visited holds the internal rows of the orbit so far, InternalWidth
	// values each. The communication row is the same in all of them (the
	// exploration ends at the first write that changes it), so it is not
	// stored.
	visited []int
}

// bind points the probe at sys, reusing buffers when already bound.
func (o *orbitProbe) bind(sys *System) {
	if o.sys == sys {
		return
	}
	o.sys = sys
	o.ctx = Ctx{
		sys:      sys,
		comm:     make([]int, sys.CommWidth()),
		internal: make([]int, sys.InternalWidth()),
	}
}

// seen reports whether the current internal row is one of the first n
// visited rows.
func (o *orbitProbe) seen(n int) bool {
	row := o.ctx.internal
	for i := 0; i < n; i++ {
		if intsEqual(row, o.visited[i*len(row):(i+1)*len(row)]) {
			return true
		}
	}
	return false
}

// enabledOrbitSilent is enabledOrbitSilent (silent.go) on the probe's
// reusable buffers: it decides whether p's frozen-neighborhood orbit from
// cfg ever changes communication state, with verdicts identical to the
// one-shot path's. Silent orbits visit a handful of states, so the
// visited rows are scanned linearly, as the replay memo scans its
// entries.
func (o *orbitProbe) enabledOrbitSilent(cfg *Config, p, maxOrbit int) (bool, error) {
	c := &o.ctx
	c.aim(cfg, p)
	if len(c.nbr) == 0 {
		return true, nil // isolated: disabled by definition, orbit closed
	}
	comm := cfg.commRow(p)
	copy(c.comm, comm)
	copy(c.internal, cfg.internalRow(p))
	o.visited = o.visited[:0]

	actions := o.sys.spec.Actions
	for iter := 0; iter < maxOrbit; iter++ {
		if o.seen(iter) {
			return true, nil // orbit closed without a communication write
		}
		o.visited = append(o.visited, c.internal...)

		idx := -1
		for i := range actions {
			c.beginBody()
			if actions[i].Guard(c) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true, nil // disabled: local fixed point
		}
		if actions[idx].Randomized {
			// A Randomized action draws fresh values for communication
			// variables; if one is enabled, some computation changes the
			// communication state with positive probability.
			return false, nil
		}
		if err := o.applyChecked(idx); err != nil {
			return false, err
		}
		if !intsEqual(c.comm, comm) {
			return false, nil // deterministic communication write
		}
	}
	return false, fmt.Errorf("orbit exceeded %d states", maxOrbit)
}

// applyChecked runs the action's Apply on the probe context, converting a
// panic (out-of-domain write, randomness drawn without a generator) into
// an error exactly like the one-shot probeApply.
func (o *orbitProbe) applyChecked(action int) (err error) {
	c := &o.ctx
	defer func() {
		c.inApply = false
		if rec := recover(); rec != nil {
			err = fmt.Errorf("apply panicked: %v", rec)
		}
	}()
	c.inApply = true
	c.beginBody()
	o.sys.spec.Actions[action].Apply(c)
	return nil
}
