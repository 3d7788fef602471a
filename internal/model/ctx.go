package model

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Observer receives execution events from the engine: per step one
// StepBegin, the step's CommWrite events and one StepEnd, and for every
// activation a Selected — one call with times 1 per evaluated selection,
// within its step, while the selections the simulator replays instead of
// evaluating are counted and delivered as one call with the count: those
// of a disabled process whose verdict stands (its reads are a function of
// its own state and its neighbors' communication rows, neither of which
// moved), counted per process and delivered as one call, and those of a
// process on a closed cycle (whose neighborhood is frozen, before
// silence or after it), counted per process and delivered per
// transition of the cycle. Every count reaches the
// observer before the Simulator method that stepped returns. An
// implementation may therefore keep sums, maxima and set unions of what
// Selected carries, but nothing that depends on where its calls fall
// between StepBegin and StepEnd. The step hooks carry how many
// processes the step selected, not which: under a MaskScheduler the
// engine never lists them. All methods may be called frequently;
// implementations should be cheap. A nil Observer is always allowed.
type Observer interface {
	// StepBegin fires before the processes selected at step execute;
	// selections is how many there are.
	StepBegin(step, selections int)
	// Selected stands for times selections of process p, each made after
	// p evaluated its guards against the pre-step configuration and
	// executed its first enabled action. It carries exactly what the
	// paper's measures need: neighbors lists the distinct neighbors p
	// read in one such selection, in first-read order, each as the base
	// arc (p, neighbor) of the system's graph (graph.Graph.Arc; ArcHead
	// maps it back) — Def. 4, and the raw material of the read sets R_p
	// of Defs. 7-9, which are sets of p's arcs; bits is the memory p read
	// in it, each (neighbor, kind, variable) counted once (Def. 5), and
	// fired is the executed action index (-1 for a selected-but-disabled
	// process). step is the selection's step when times is 1; a counted
	// batch carries the simulator's step count at delivery. neighbors is
	// engine-owned and only valid during the call.
	Selected(step, p int, neighbors []int, bits, fired, times int)
	// CommWrite fires when p's communication variable v changes from old
	// to new (only for actual value changes).
	CommWrite(step, p, v, old, new int)
	// StepEnd fires after all writes of the step are committed;
	// selections is StepBegin's, and roundCompleted reports whether this
	// step completed a round.
	StepEnd(step, selections int, roundCompleted bool)
}

// readAgg folds the neighbor reads of one process evaluation into the
// aggregate Observer.Selected delivers. A simple graph puts each
// neighbor behind exactly one port, so two generation-stamped tables
// keyed by port dedup in O(1) per read for every n and Δ: port[i] marks
// the neighbor behind port i as already listed, slot[i*slots+s] marks
// its variable s (communication variables first, then constants) as
// already counted. Bumping gen invalidates both tables at once. The
// tables start empty and grow to the highest port read, so a topology
// event that raises a degree needs no resizing hook. A neighbor is
// listed by its base arc (graph.Graph.Arc), taken once, on its first
// read.
type readAgg struct {
	slots int
	gen   uint32
	port  []uint32
	slot  []uint32

	g *graph.Graph // the graph arcs are taken from
	p int          // the process being evaluated

	arcs []int // base arcs of the distinct neighbors read, in first-read order
	bits int   // bits read, each (neighbor, kind, variable) once
}

// newReadAgg returns an aggregator for evaluations over sys. Call begin
// before the first evaluation: generation 0 is the tables' zero value.
func newReadAgg(sys *System) readAgg {
	return readAgg{slots: sys.wc + sys.lc, g: sys.g}
}

// begin starts the aggregate of the next evaluation, of process p.
func (a *readAgg) begin(p int) {
	a.p = p
	a.gen++
	if a.gen == 0 {
		// The stamp wrapped: entries written 2³² evaluations ago would
		// read as current.
		clear(a.port)
		clear(a.slot)
		a.gen = 1
	}
	a.arcs = a.arcs[:0]
	a.bits = 0
}

// note folds one read of variable slot s (bits wide) of the neighbor
// behind port.
func (a *readAgg) note(port, s, bits int) {
	if port >= len(a.port) {
		a.grow(port + 1)
	}
	if a.port[port] != a.gen {
		a.port[port] = a.gen
		a.arcs = append(a.arcs, a.g.Arc(a.p, port))
	}
	if i := port*a.slots + s; a.slot[i] != a.gen {
		a.slot[i] = a.gen
		a.bits += bits
	}
}

// grow widens the tables to at least ports entries, keeping the stamps
// of the evaluation in progress (rows are port-major, so they stay in
// place). arcs gets the same capacity: an evaluation lists each port at
// most once, so note's append never allocates.
func (a *readAgg) grow(ports int) {
	ports = max(ports, 2*len(a.port))
	a.port = append(make([]uint32, 0, ports), a.port...)[:ports]
	a.slot = append(make([]uint32, 0, ports*a.slots), a.slot...)[:ports*a.slots]
	a.arcs = append(make([]int, 0, ports), a.arcs...)
}

// View answers the neighbor reads of the process a Ctx is aimed at
// (NeighborComm, NeighborConst and BackPort) in place of the engine's
// arrays. Two implement it: the transformer's cached view
// (internal/transformer), which GuardThrough and ApplyThrough install
// around each original action, and the reference semantics' own walk of
// its own adjacency (internal/model/ref), which it hands to Evaluate. A
// view installed by a spec is shared by every context that evaluates the
// spec, from any goroutine, so it keeps no state: what one evaluation
// needs, such as the view it was installed over, lives on the Ctx.
type View interface {
	NeighborComm(c *Ctx, port, v int) int
	NeighborConst(c *Ctx, port, v int) int
	BackPort(c *Ctx, port int) int
}

// Ctx is the window through which a process's guarded actions see the
// system: its own variables (read/write) and its neighbors'
// communication state (read-only, instrumented). Every neighbor read
// passes one seam, the view field: while it is nil the read resolves
// against the engine's arrays (pre, nbr, and agg to record it), and
// otherwise the installed View answers it.
//
// Ports are 1-based local indices 1..δ.p, exactly the paper's labelling.
//
// A Ctx is only valid for the duration of one guard/apply evaluation:
// the engine re-aims one context at every process it evaluates, so
// protocols must never retain one.
type Ctx struct {
	sys *System
	pre *Config // pre-step configuration: neighbor reads resolve here
	p   int
	// nbr is p's port row (graph.Row, or Evaluate's nbr), taken once where
	// the context is aimed at p: nbr[port-1] is the neighbor behind port,
	// and any port outside 1..δ.p panics on its bound.
	nbr []int32

	// Own state: private copies on a probe or a one-shot evaluation. On the
	// step arena internal is the configuration's row, written in place,
	// and comm is the configuration's row until the first SetComm copies
	// it into stage (nil elsewhere, and once staged) and re-aims comm
	// there. See "Own state during a step" in the package comment.
	comm, internal, stage []int32

	rand    *rng.Rand
	inApply bool // inside an Apply body: Rand, SetComm and SetInternal allowed

	// Arena back-pointer (arena-driven evaluation only) for lazy
	// per-process reseeding: most applies never draw, so the
	// (stepSeed, p) reseed is deferred until the first Rand call of the
	// body.
	arena *stepArena

	// agg receives every instrumented neighbor read; nil for unrecorded
	// evaluations (enabledness and silence probes, runs without an
	// observer).
	agg *readAgg

	// view, when set, answers the neighbor reads instead of pre, nbr and
	// agg; outer is the view it was installed over (nil: the engine's
	// arrays), which answers the reads view passes on (OuterBackPort).
	view, outer View

	// Per-body scratch allocator (see Scratch): the buffer is recycled
	// between guard/apply bodies, so the steady-state evaluation path of
	// full-read protocols performs no heap allocation.
	scratch    []int
	scratchOff int

	// What Spec.First handed to the Apply body of the same evaluation
	// (see Keep); firstEnabled clears kept before every evaluation.
	keptA, keptB int
	kept         bool
}

// Scratch returns a length-n scratch slice for protocol bodies that
// need per-evaluation working storage — typically full-read baselines
// collecting every neighbor's state before deciding. Successive calls
// within one Guard or Apply body return disjoint slices from a
// per-context buffer; the slice is only valid until the body returns,
// and its contents are unspecified on entry.
func (c *Ctx) Scratch(n int) []int {
	off := c.scratchOff
	end := off + n
	if end > cap(c.scratch) {
		grown := make([]int, 2*end)
		copy(grown, c.scratch)
		c.scratch = grown
	}
	c.scratchOff = end
	return c.scratch[off:end:end]
}

// Keep hands a and b from Spec.First to the Apply body of the action it
// returns, which reads them with Kept: values First computed in its pass
// over the neighbors (the BFS tree's minimum distance and its port) that
// the statement would otherwise compute again. It is not a write: First
// may call it, as may any body, and nothing but Kept sees it.
func (c *Ctx) Keep(a, b int) { c.keptA, c.keptB, c.kept = a, b, true }

// Kept returns what First kept in the evaluation under way, with ok
// false when it kept nothing: every engine evaluation starts with the
// hand-off empty, and Evaluate's guard walk, which calls no First, leaves
// it so. An Apply body that uses it must write what it writes without it.
func (c *Ctx) Kept() (a, b int, ok bool) { return c.keptA, c.keptB, c.kept }

// aim points the context at process p of cfg, as every reused context
// is before it evaluates p: neighbor reads resolve against cfg through
// p's port row, with no view (a panic may have left one), and no
// generator is bound.
func (c *Ctx) aim(cfg *Config, p int) {
	c.pre, c.p = cfg, p
	c.nbr = c.sys.g.Row(p)
	c.view = nil
	c.rand = nil
}

// beginBody recycles the scratch buffer for the next Guard or Apply
// body; every evaluation site calls it immediately before invoking one.
func (c *Ctx) beginBody() { c.scratchOff = 0 }

// P returns the executing process id (for diagnostics; protocols must
// not use it to break anonymity).
func (c *Ctx) P() int { return c.p }

// Deg returns δ.p.
func (c *Ctx) Deg() int { return len(c.nbr) }

// Delta returns Δ, the maximum degree of the network (used for palette
// sizes, e.g. the Δ+1 colors of Protocol COLORING).
func (c *Ctx) Delta() int { return c.sys.delta }

// N returns the network size.
func (c *Ctx) N() int { return c.sys.N() }

// Comm returns the process's own communication variable v.
func (c *Ctx) Comm(v int) int { return int(c.comm[v]) }

// SetComm assigns the process's own communication variable v. Like
// SetInternal and Rand it panics in a guard: a guard is a predicate.
func (c *Ctx) SetComm(v, val int) {
	if !c.inApply {
		panic("model: own state is only writable inside Apply")
	}
	if d := int(c.sys.commDomains[len(c.nbr)*c.sys.wc+v]); val < 0 || val >= d {
		panic(fmt.Sprintf("model: %s: comm %s=%d outside [0,%d) at process %d",
			c.sys.spec.Name, c.sys.spec.Comm[v].Name, val, d, c.p))
	}
	if c.stage != nil {
		copy(c.stage, c.comm)
		c.comm, c.stage = c.stage, nil
	}
	c.comm[v] = int32(val)
}

// Internal returns the process's own internal variable v.
func (c *Ctx) Internal(v int) int { return int(c.internal[v]) }

// SetInternal assigns the process's own internal variable v.
func (c *Ctx) SetInternal(v, val int) {
	if !c.inApply {
		panic("model: own state is only writable inside Apply")
	}
	if d := int(c.sys.internalDomains[len(c.nbr)*c.sys.wi+v]); val < 0 || val >= d {
		panic(fmt.Sprintf("model: %s: internal %s=%d outside [0,%d) at process %d",
			c.sys.spec.Name, c.sys.spec.Internal[v].Name, val, d, c.p))
	}
	c.internal[v] = int32(val)
}

// Const returns the process's own communication constant v.
func (c *Ctx) Const(v int) int { return c.sys.Const(c.p, v) }

// NeighborComm reads communication variable v of the neighbor behind
// port (1..δ.p). The read is instrumented: it counts toward the step's
// read set, the raw material of Definitions 4-9.
func (c *Ctx) NeighborComm(port, v int) int {
	if c.view != nil {
		return c.view.NeighborComm(c, port, v)
	}
	q := int(c.nbr[port-1])
	if c.agg != nil {
		c.agg.note(port, v, c.sys.commBit(q, v))
	}
	return int(c.pre.commRow(q)[v])
}

// NeighborConst reads communication constant v of the neighbor behind
// port. Constants are communication state too: reading one is a
// communication and is instrumented.
func (c *Ctx) NeighborConst(port, v int) int {
	if c.view != nil {
		return c.view.NeighborConst(c, port, v)
	}
	q := int(c.nbr[port-1])
	if c.agg != nil {
		c.agg.note(port, c.sys.wc+v, c.sys.constBit(q, v))
	}
	return c.sys.Const(q, v)
}

// BackPort returns the port under which this process appears in the
// local labelling of the neighbor behind port. This is structural
// knowledge of the bidirectional link (needed, e.g., to evaluate
// "PR.(cur.p) = p" in Protocol MATCHING).
func (c *Ctx) BackPort(port int) int {
	if c.view != nil {
		return c.view.BackPort(c, port)
	}
	return c.sys.g.BackPort(c.p, port)
}

// GuardThrough evaluates guard with v answering c's neighbor reads,
// installed over the view in place (nil: the engine's arrays), which it
// restores before it returns.
func (c *Ctx) GuardThrough(v View, guard func(*Ctx) bool) bool {
	view, outer := c.view, c.outer
	c.view, c.outer = v, view
	ok := guard(c)
	c.view, c.outer = view, outer
	return ok
}

// ApplyThrough is GuardThrough for an Apply body.
func (c *Ctx) ApplyThrough(v View, apply func(*Ctx)) {
	c.GuardThrough(v, func(c *Ctx) bool { apply(c); return true })
}

// OuterBackPort is BackPort as the view the installed one went over
// answers it: the installed view calls it for the back ports it does not
// know.
func (c *Ctx) OuterBackPort(port int) int {
	if c.outer != nil {
		return c.outer.BackPort(c, port)
	}
	return c.sys.g.BackPort(c.p, port)
}

// Rand returns a uniform value in [0, n). Only Apply bodies of actions
// marked Randomized may draw randomness; guards must be deterministic.
func (c *Ctx) Rand(n int) int {
	if !c.inApply {
		panic("model: randomness is only available inside Apply")
	}
	if c.rand == nil {
		if c.arena == nil {
			panic("model: Rand with no generator: the action draws but is not marked Randomized")
		}
		c.rand = c.arena.processRand(c.p)
	}
	return c.rand.Intn(n)
}
