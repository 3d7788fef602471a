// Package model implements the computational model of the paper
// (Section 2): a distributed system is a set of communicating state
// machines over a connected graph; each process owns communication
// variables (readable by neighbors), communication constants, and
// internal variables; a protocol is a prioritized list of guarded
// actions; a computation is driven by a scheduler selecting a non-empty
// subset of processes per step, each selected process atomically
// evaluating its guards against the pre-step configuration and executing
// its first enabled action.
//
// Every access a process makes to a neighbor's communication state goes
// through the Ctx API and is recorded, which is what lets the trace layer
// measure the paper's communication-efficiency notions (k-efficiency,
// Definitions 4-9) directly rather than by static inspection.
//
// # State layout
//
// Config stores the whole configuration as two flat arrays and nothing
// else: one holds every communication variable (variable v of process p
// at p×CommWidth+v), one every internal variable, so Clone, CopyFrom,
// Equal and CommEqual are single copy/slices.Equal calls, a neighborhood
// read walks contiguous memory and a process costs no slice header.
// Outside this package the only way in is five accessors: N, Comm(p, v),
// SetComm(p, v, x), Internal(p, v) and SetInternal(p, v, x). None returns
// a slice, so nothing outside the package holds a row, and the element
// width is private: values are int32 (NewSystem rejects any domain above
// 2³¹ − 1), and so are the rows every evaluation context, the step
// arena's staging and the cycle detectors' anchors hold, while the
// accessors and Ctx speak int. Inside the package the step paths take
// process p's row as a sub-slice cut with its capacity (commRow,
// internalRow), which the accessors index too: a variable index outside
// the row or a process outside [0, n) panics on the slice bound and
// never reaches a neighboring row.
//
// # Own state during a step
//
// A step is two-phase: every selected process evaluates against the
// pre-step configuration, then all writes land. Only communication rows
// need the second phase. Ctx shows a process nothing of another but
// NeighborComm and NeighborConst, and a process is evaluated once per
// step, so Simulator.Step lets SetInternal write the configuration's row
// where it lives. The communication row is copy-on-write: the context
// reads the configuration's row until the first SetComm copies it into
// the arena's staging array, and the commit visits the processes that
// staged, in selection order; a selection that is disabled or writes
// internal state only costs no copy and no visit. Own state is writable
// only inside an Apply body: SetComm, SetInternal and Rand panic in a
// guard on every context, or a guard that wrote and returned false would
// have moved a disabled process. Everything else that evaluates a process
// — the orbit walker, the tracker, StepProcess and Evaluate, through which
// the reference semantics in internal/model/ref steps — does so on private
// copies of both rows.
//
// # One pass per evaluation
//
// A spec's Actions are its definition: guards in priority order, as the
// paper writes them. A spec may also declare First, a one-pass decision
// held to the guard walk (see Spec.First). Every engine evaluation site
// then calls First once instead of the guards: the step arena
// (Simulator.Step, and countTransition's re-evaluation of a counted
// cycle), the tracker's recompute, the orbit probe (SilentNow,
// CommSilent, ProcessSilent and EventualReadSets) and StepProcess.
// Evaluate alone walks the guards, so the reference semantics in
// internal/model/ref, and every test that compares the simulator with it,
// checks First against them. First may also hand the Apply body that
// follows it what its pass found (Ctx.Keep and Ctx.Kept): the BFS tree's
// relax statement takes the minimum distance and its port from First
// instead of scanning the neighbors again. firstEnabled empties the
// hand-off before every evaluation, so an Apply run after a guard walk
// (Evaluate's, or a transformed spec's) finds it empty and computes what
// it needs itself; its reads repeat the decision's, which a read set
// counts once either way.
//
// # Enabledness invalidation invariant
//
// A guard may read only its process's own variables and its neighbors'
// communication variables (plus immutable constants and structure).
// Hence p's enabledness — and equally p's frozen-neighborhood orbit
// verdict used by the silence decision — is a function of p's own state
// and the communication rows of p's neighbors alone, and a cached verdict
// goes stale only when (a) p itself moves, or (b) a neighbor of p changes
// its communication row. Simulator.Step applies exactly this dirty rule
// to the EnabledTracker, and feeds it too: a step evaluation that finds p
// disabled commits that verdict. The reads the evaluation made depend on
// the same state, so they are kept beside the verdict and share its
// lifetime; while it stands, a selection of p is a counted replay, not an
// evaluation (see Simulator.disReads). The incremental silence cache
// narrows (a) for a "silent" verdict to "p changes its own communication
// row": the verdict says p's whole frozen-neighborhood orbit is
// deterministic and never writes communication state, so a move of p
// that wrote none lands on the next state of that same orbit and the
// verdict still holds. A "broken" verdict follows (a) as stated. The
// cycle detectors behind convergence-phase counts (Simulator.cntState)
// follow (b) and narrow (a) the same way: a move of p that the orbit
// walker would call silent (an action not marked Randomized, no draw,
// no staged communication write) feeds p's detector instead of
// dropping it. Code that mutates a tracked configuration behind the
// simulator's back must call EnabledTracker.Invalidate itself
// (Simulator.MarkDirty does, and drops the silence verdicts, the kept
// reads and the detectors too).
package model

import (
	"fmt"
	"math"
	"math/bits"
)

// DomainInfo carries the structural parameters a variable domain may
// depend on.
type DomainInfo struct {
	// N is the number of processes in the system.
	N int
	// Delta is the maximum degree Δ of the graph.
	Delta int
	// Degree is δ.p, the degree of the owning process.
	Degree int
}

// VarSpec declares one variable of a protocol. Values range over
// 0..Domain(info)-1.
type VarSpec struct {
	// Name is the paper-facing variable name, e.g. "C", "S", "PR", "cur".
	Name string
	// Domain returns the domain size for a process with the given
	// structural parameters. Must be >= 1.
	Domain func(info DomainInfo) int
}

// FixedDomain returns a Domain function for a degree-independent domain.
func FixedDomain(size int) func(DomainInfo) int {
	return func(DomainInfo) int { return size }
}

// Action is one guarded action <guard> -> <statement>. Priority is the
// position in Spec.Actions: earlier actions have higher priority
// (Section 2: "Actions appearing first have higher priority").
type Action struct {
	// Name labels the action in traces.
	Name string
	// Guard is a Boolean predicate over the process's own variables and
	// its neighbors' communication variables (read through Ctx). It must
	// not write.
	Guard func(c *Ctx) bool
	// Apply executes the action's statement. It may only write the
	// process's own variables and may draw randomness via Ctx.Rand.
	Apply func(c *Ctx)
	// Randomized marks actions whose Apply draws randomness into a
	// communication variable. The silence checker treats any enabled
	// Randomized action as breaking silence, so protocols must only mark
	// actions that really can change communication state.
	Randomized bool
}

// Spec is a protocol: variable declarations plus a prioritized action
// list. A Spec is shared by all processes (local algorithms are uniform;
// anonymity or local identifiers are expressed through constants).
type Spec struct {
	// Name is the protocol name, e.g. "COLORING".
	Name string
	// Comm declares the communication variables (owner read/write,
	// neighbors read).
	Comm []VarSpec
	// Const declares the communication constants (fixed per system,
	// neighbors read). Example: the color C.p of Protocols MIS and
	// MATCHING.
	Const []VarSpec
	// Internal declares the internal variables (owner only).
	Internal []VarSpec
	// Actions is the prioritized guarded-action list.
	Actions []Action
	// First, when set, decides in one pass what walking the guards of
	// Actions in priority order decides: it returns the index of p's first
	// enabled action, or -1 if none is enabled. Its contract, for every
	// state of p and of its neighbors:
	//   - it returns the index the guard walk returns;
	//   - it reads the same neighbors in the same first-read order and, at
	//     each, the same variables and back port (NeighborComm,
	//     NeighborConst and BackPort, each once or more), so every read set
	//     and bit count is the guard walk's;
	//   - it does not write and does not draw (Ctx.SetComm, SetInternal
	//     and Rand panic in it, as in a guard);
	//   - it may hand what its pass computed to the Apply body of the
	//     action it returns (Ctx.Keep, read with Ctx.Kept), and an Apply
	//     that uses the hand-off makes the same writes as it makes
	//     without it, which is what it gets after a guard walk.
	// Every engine evaluation calls it in place of the guards; Evaluate,
	// and so the reference semantics, keeps walking the guards, which stay
	// the definition. A spec derived by dropping or wrapping actions must
	// not carry First over. nil means the guard walk.
	First func(c *Ctx) int
	// Legitimate is the predicate the protocol stabilizes to, stated at
	// one process p of a configuration of a system running it: it may
	// read p's communication state and constants and those of p's live
	// neighbors, and the ports p has at them (Graph().BackPort). It is
	// nil when the protocol declares none. The predicate of a
	// configuration is the package's Legitimate, the conjunction over the
	// processes that have a neighbor; every run that reports legitimacy
	// evaluates that.
	Legitimate func(sys *System, cfg *Config, p int) bool
}

// Validate checks structural sanity of the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("model: spec has empty name")
	}
	if len(s.Actions) == 0 {
		return fmt.Errorf("model: spec %q has no actions", s.Name)
	}
	if len(s.Actions) > math.MaxInt16 {
		// The engine's per-process tables hold an action index in 16 bits.
		return fmt.Errorf("model: spec %q has %d actions, more than %d", s.Name, len(s.Actions), math.MaxInt16)
	}
	for i, a := range s.Actions {
		if a.Guard == nil || a.Apply == nil {
			return fmt.Errorf("model: spec %q action %d (%s) missing guard or apply", s.Name, i, a.Name)
		}
	}
	seen := map[string]bool{}
	for _, group := range [][]VarSpec{s.Comm, s.Const, s.Internal} {
		for _, v := range group {
			if v.Name == "" {
				return fmt.Errorf("model: spec %q has unnamed variable", s.Name)
			}
			if v.Domain == nil {
				return fmt.Errorf("model: spec %q variable %s has no domain", s.Name, v.Name)
			}
			if seen[v.Name] {
				return fmt.Errorf("model: spec %q declares variable %s twice", s.Name, v.Name)
			}
			seen[v.Name] = true
		}
	}
	return nil
}

// BitsFor returns the number of bits needed to store one value from a
// domain of the given size: ⌈log2(size)⌉ (0 for size <= 1).
func BitsFor(domain int) int {
	if domain <= 1 {
		return 0
	}
	return bits.Len(uint(domain - 1))
}
