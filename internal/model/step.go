package model

import (
	"slices"

	"repro/internal/rng"
)

// firstEnabled returns the index of p's first enabled action, or -1 if
// p is disabled, against ctx's own state and pre configuration
// (neighbors). When the spec declares First it makes one call to it;
// otherwise it walks the guards (walkGuards). Either way it first empties
// the hand-off (Ctx.Keep), so an Apply body sees only what First kept in
// this evaluation, and nothing after a guard walk. Every engine evaluation
// site (the step arena, countTransition, the tracker, the orbit walker,
// EventualReadSets and StepProcess) goes through it. Evaluate does not:
// it walks the guards, the reference First is held to.
//
// A degree-0 process is disabled by definition: it cannot communicate,
// and protocol guards may assume δ.p >= 1 (the paper's model). Static
// systems never contain one (NewSystem requires min degree 1); under
// dynamic topologies a crashed or fully cut-off process is isolated but
// remains scheduled, and this rule is what keeps it from moving.
// Legitimate leaves such a process out of the predicate.
func firstEnabled(c *Ctx) int {
	c.kept = false
	if len(c.nbr) == 0 {
		return -1
	}
	c.inApply = false // a panic may have left a reused context inside Apply
	if first := c.sys.spec.First; first != nil {
		c.beginBody()
		return first(c)
	}
	return walkGuards(c)
}

// walkGuards evaluates p's guards in priority order, as the paper writes
// them, and returns the index of the first that holds, or -1. The caller
// has applied the degree-0 rule and left Apply.
func walkGuards(c *Ctx) int {
	actions := c.sys.spec.Actions
	for i := range actions {
		c.beginBody()
		if actions[i].Guard(c) {
			return i
		}
	}
	return -1
}

// Legitimate reports whether cfg satisfies sys's legitimacy predicate:
// Spec.Legitimate at every process of live degree 1 or more, and false
// when the spec declares none. An isolated process is left out: it has
// no neighbor to agree with, and firstEnabled keeps it from moving to
// mend its state until an edge returns. This is the one place the
// exemption is stated, for every protocol.
func Legitimate(sys *System, cfg *Config) bool {
	at := sys.spec.Legitimate
	if at == nil {
		return false
	}
	for p := range sys.N() {
		if sys.g.Degree(p) > 0 && !at(sys, cfg, p) {
			return false
		}
	}
	return true
}

// execOne applies p's first enabled action and returns its index, or -1
// if p is disabled.
func execOne(c *Ctx) int {
	i := firstEnabled(c)
	applyAction(c, i)
	return i
}

// applyAction runs the Apply body of action i, if i >= 0.
func applyAction(c *Ctx, i int) {
	if i >= 0 {
		c.inApply = true
		c.beginBody()
		c.sys.spec.Actions[i].Apply(c)
		c.inApply = false
	}
}

// Evaluate evaluates process p once on a fresh context, for the reference
// semantics in internal/model/ref: p's own state is the caller's rows comm
// and internal (CommWidth and InternalWidth values), nbr lists the
// neighbor behind each of p's ports in the caller's adjacency, and view
// answers every neighbor read, so what the evaluation read is the view's
// to record. The guards run in priority order, as the paper writes them,
// even when the spec declares First: Evaluate is the reference First is
// held to. With apply set, the first enabled action then runs on the
// caller's rows, drawing from r. It returns that action (-1: disabled).
// The context holds int32 copies of the rows, and the values it ends
// with are written back.
func Evaluate(sys *System, view View, p int, nbr, comm, internal []int, apply bool, r *rng.Rand) int {
	c := &Ctx{sys: sys, p: p, nbr: toInt32(nbr), view: view, comm: toInt32(comm), internal: toInt32(internal), rand: r}
	action := -1
	if len(c.nbr) > 0 {
		action = walkGuards(c)
	}
	if apply {
		applyAction(c, action)
	}
	for v, x := range c.comm {
		comm[v] = int(x)
	}
	for v, x := range c.internal {
		internal[v] = int(x)
	}
	return action
}

// toInt32 narrows a caller's row for Evaluate's context.
func toInt32(row []int) []int32 {
	out := make([]int32, len(row))
	for v, x := range row {
		out[v] = narrow(x)
	}
	return out
}

// StepProcess executes one atomic step of process p directly on cfg:
// guards are evaluated, the first enabled action applied, and p's state
// written back. It returns the fired action index (-1 if disabled).
//
// It exists for external runtimes (e.g. the goroutine runtime in
// internal/concurrent) that provide their own synchronization. The
// caller must guarantee exclusive access to p's state and read access to
// the neighbors' communication state for the duration of the call.
func StepProcess(sys *System, cfg *Config, p int, r *rng.Rand) int {
	c := &Ctx{sys: sys, comm: slices.Clone(cfg.commRow(p)), internal: slices.Clone(cfg.internalRow(p))}
	c.aim(cfg, p)
	c.rand = r
	fired := execOne(c)
	if fired >= 0 {
		copy(cfg.commRow(p), c.comm)
		copy(cfg.internalRow(p), c.internal)
	}
	return fired
}
