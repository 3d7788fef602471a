package model

import (
	"fmt"
	"slices"
)

// orbitBudget caps the transitions one orbit walk evaluates, as a defence
// against enormous internal domains. Every state of an orbit the walk
// closes cost it at least one transition, so a closed orbit has at most
// orbitBudget states.
const orbitBudget = 1 << 16

// orbitProbe walks a process's frozen-neighborhood orbit: the states p
// moves through when it is selected alone, again and again, while every
// neighbor's communication row stays at its value in cfg. The paper's
// silent configuration (Definition 3, Section 2.2) and its eventual read
// sets (Definition 9) are both questions about that orbit, and this walker
// is the only one that answers them: SilentNow and CommSilent ask whether
// any orbit changes communication state, EventualReadSets which neighbors
// a closed orbit keeps reading.
//
// Deciding silence this way is sound and complete for this model:
//
//   - If some orbit transition writes a communication variable with a
//     changed value (or an enabled Randomized action writes one at all),
//     cfg is not silent: the scheduler that selects only p repeatedly
//     realizes exactly that orbit, so a computation changing communication
//     state exists.
//   - If no orbit ever changes communication state, no computation from
//     cfg can: the first communication change overall would have to be
//     made by some process whose neighbors' communication states were
//     still at their cfg values, and that process's state evolution up to
//     that point is exactly its frozen-neighborhood orbit (its guards
//     depend only on its own state and neighbor communication state).
//
// Randomized actions end the walk, so the orbit is deterministic, and
// local state spaces are finite, so it is a ρ: a tail into a cycle, or
// into a disabled state. The walk finds the cycle with Brent's algorithm
// (one saved row, the tortoise, moved up to the current state whenever
// the steps since the last move reach a power of two) and also compares
// each state with the start row, which closes an orbit that is a cycle
// from the start on its first return. That needs no visited set and takes
// O(1) memory and time linear in the orbit: at most about three times its
// length in transitions, and exactly its length for a cycle. Only internal
// rows are compared: the walk ends at the first transition that changes
// the communication row, so every state it compares has cfg's.
//
// A probe may be reused across processes and configurations of one
// system; it is not safe for concurrent use. Steady-state walks allocate
// nothing.
type orbitProbe struct {
	sys *System
	// ctx is the reusable evaluation context. Its private own-state rows
	// are the current orbit state: guards cannot write them and Apply
	// moves them to the next one.
	ctx Ctx
	// start and tortoise are internal rows: the walk's first state and
	// Brent's saved one.
	start, tortoise []int32
	// first is the action the walk's first transition found enabled (-1:
	// none): p's enabledness under cfg, which SilentNow hands the tracker.
	first int
}

// bind points the probe at sys, reusing buffers when already bound.
func (o *orbitProbe) bind(sys *System) {
	if o.sys == sys {
		return
	}
	o.sys = sys
	o.ctx = Ctx{
		sys:      sys,
		comm:     make([]int32, sys.CommWidth()),
		internal: make([]int32, sys.InternalWidth()),
	}
	o.start = make([]int32, sys.InternalWidth())
	o.tortoise = make([]int32, sys.InternalWidth())
}

// walk walks p's orbit from cfg. silent reports that no transition of it
// changes communication state. A silent walk leaves the context on the
// orbit's end and reports its period: the transitions around the final
// cycle, or 0 when the orbit ends at a disabled state (a degree-0 process
// is one from the start). An error means the budget ran out or an Apply
// panicked.
func (o *orbitProbe) walk(cfg *Config, p int) (silent bool, period int, err error) {
	c := &o.ctx
	c.aim(cfg, p)
	c.agg = nil
	copy(c.comm, cfg.commRow(p))
	copy(c.internal, cfg.internalRow(p))
	copy(o.start, c.internal)
	copy(o.tortoise, c.internal)
	power, lam := 1, 0
	for n := 1; n <= orbitBudget; n++ {
		fired, silent, err := o.transition(cfg, p)
		if n == 1 {
			o.first = fired
		}
		if err != nil || !silent {
			return false, 0, err
		}
		if fired < 0 {
			return true, 0, nil // disabled: local fixed point
		}
		if slices.Equal(c.internal, o.start) {
			return true, n, nil // back at the start: the orbit is one cycle
		}
		if lam++; slices.Equal(c.internal, o.tortoise) {
			return true, lam, nil
		}
		if lam == power {
			copy(o.tortoise, c.internal)
			power *= 2
			lam = 0
		}
	}
	return false, 0, fmt.Errorf("orbit exceeded %d transitions", orbitBudget)
}

// transition moves the context one step along p's orbit: it runs p's
// first enabled action, if any, and reports whether the orbit is still
// silent after it. An enabled Randomized action breaks silence without
// running (it draws fresh communication values, so some computation
// changes communication state with positive probability), and so does an
// action that leaves the communication row different from cfg's. A panic
// in Apply (an out-of-domain write, a draw by an action not marked
// Randomized) becomes the error.
func (o *orbitProbe) transition(cfg *Config, p int) (fired int, silent bool, err error) {
	c := &o.ctx
	fired = firstEnabled(c)
	if fired < 0 {
		return fired, true, nil
	}
	action := &o.sys.spec.Actions[fired]
	if action.Randomized {
		return fired, false, nil
	}
	defer func() {
		c.inApply = false
		if rec := recover(); rec != nil {
			err = fmt.Errorf("apply panicked: %v", rec)
		}
	}()
	c.inApply = true
	c.beginBody()
	action.Apply(c)
	return fired, slices.Equal(c.comm, cfg.commRow(p)), nil
}

// CommSilent decides whether cfg is a silent configuration: one from
// which the values of all communication variables are fixed in every
// possible computation (Definition 3 and the "silent configuration"
// notion of Section 2.2). It walks every process's orbit; see orbitProbe
// for why that decides it. Simulator.SilentNow gives the same verdict
// incrementally.
func CommSilent(sys *System, cfg *Config) (bool, error) {
	var o orbitProbe
	o.bind(sys)
	for p := 0; p < sys.N(); p++ {
		if silent, err := o.processSilent(cfg, p); err != nil || !silent {
			return false, err
		}
	}
	return true, nil
}

// ProcessSilent reports whether p's frozen-neighborhood orbit from cfg
// never changes communication state: CommSilent's verdict for one
// process. It reads only p's state and its neighbors' communication
// state, so a search may decide it as soon as those are fixed.
func ProcessSilent(sys *System, cfg *Config, p int) (bool, error) {
	var o orbitProbe
	o.bind(sys)
	return o.processSilent(cfg, p)
}

func (o *orbitProbe) processSilent(cfg *Config, p int) (bool, error) {
	silent, _, err := o.walk(cfg, p)
	if err != nil {
		return false, fmt.Errorf("model: silence check at process %d: %w", p, err)
	}
	return silent, nil
}
