package model

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Scheduler chooses, for each step, the non-empty subset of processes to
// activate. Implementations live in internal/sched; the distributed fair
// scheduler of the paper is the reference semantics.
//
// Schedulers that consult enabledness must additionally implement
// TrackedScheduler: the simulator then serves their probes from its
// incremental EnabledTracker instead of a from-scratch rescan. Nothing is
// counted on a closed cycle under a tracked daemon, so the internal rows
// its probes read are current. Under any other scheduler, within one
// RunRounds, RunSteps or RunUntilSilent call, in any phase of the run,
// the internal rows of the processes on closed cycles lag their
// selections (see Simulator.counts), so a scheduler the simulator calls
// through Select may read cfg's communication rows, not its internal
// ones. No window is open when an exported method of the Simulator
// returns.
//
// A scheduler that can hand over its selection as a bitmask implements
// MaskScheduler, and the simulator then evaluates only the selected
// processes whose selections it cannot count (see Simulator.live); one
// that selects every process at every step implements
// SynchronousScheduler, and the simulator counts its windows by the step
// clock.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Select returns the processes activated at this step. It must be
	// non-empty. Called directly on a settled configuration, it may
	// consult enabledness through an EnabledTracker over cfg (that probe
	// is the daemon's omniscience and does not count as communication).
	// The returned slice may be a reused internal buffer: it is only
	// valid until the next Select call on the same scheduler.
	Select(step int, sys *System, cfg *Config) []int
}

// MaskScheduler is an optional Scheduler extension, like
// TrackedScheduler: SelectMask returns the selection Select would return
// at the same point of the scheduler's stream, as a bitmask. The
// simulator then calls SelectMask and never Select (except through Step's
// callers, who get the mask expanded), takes no per-selection stamps,
// hands the Observer the number of processes selected, and a step visits
// only the selected processes of the live set (see Simulator.live). A
// scheduler that is also a TrackedScheduler is served as one.
type MaskScheduler interface {
	Scheduler
	// SelectMask returns the processes activated at this step as ⌈n/64⌉
	// words: bit p&63 of word p>>6 is set when p is selected, and no bit
	// at or above n is. At least one bit must be set. The returned slice
	// may be a reused internal buffer, valid until the next SelectMask or
	// Select call on the same scheduler.
	SelectMask(step int, sys *System, cfg *Config) []uint64
}

// SynchronousScheduler is an optional MaskScheduler extension: a scheduler
// that implements it declares that every mask SelectMask returns, and
// every list Select returns, holds every process. The simulator checks
// the count and keeps each window's count on the step clock instead of
// per selection (see Simulator.live). A scheduler that is also a
// TrackedScheduler is served as one.
type SynchronousScheduler interface {
	MaskScheduler
	// SelectsAll marks the declaration; the simulator never calls it.
	SelectsAll()
}

// Simulator drives a system through a computation: scheduler selections,
// atomic steps, round accounting (Dolev-Israeli-Moran rounds as defined
// in Section 2), and observer callbacks.
type Simulator struct {
	sys    *System
	cfg    *Config
	sched  Scheduler
	tsched TrackedScheduler // non-nil iff sched implements TrackedScheduler
	msched MaskScheduler    // non-nil iff sched implements MaskScheduler and not TrackedScheduler
	allSel bool             // sched is a SynchronousScheduler and not a TrackedScheduler
	obs    Observer

	// Under a MaskScheduler, the mask of the step in progress or of the
	// last one, which Step expands into stepSel for its caller.
	mask    []uint64
	stepSel []int

	step int

	// Round accounting and the selection check share one table of 32-bit
	// stamps: selStamp is the stamp of the step in progress, lastSel[p]
	// the stamp of p's latest selection (0: none), and roundStamp the
	// stamp of the step that completed the last round. So "already
	// selected this step" is lastSel[p] == selStamp and "already seen
	// this round" is lastSel[p] > roundStamp. Before selStamp would pass
	// stampLimit, rebaseStamps folds the table to the one fact it carries
	// from step to step: selected in the round in progress or not. A
	// MaskScheduler takes no stamps and lastSel is not allocated for it: a
	// mask cannot name a process twice, and pending has bit p set while p
	// is not yet selected in the round in progress, so a step's round
	// accounting is one pass over the mask's words. Under a
	// SynchronousScheduler alone selStamp counts steps, as the clock of the
	// count windows (see live).
	round          int
	roundStamp     uint32
	selStamp       uint32
	lastSel        []uint32
	remainingInRnd int
	pending        []uint64

	// arena holds the reusable step-execution state: after the
	// first step, Step performs no heap allocation.
	arena *stepArena

	// tracker serves enabledness queries incrementally; Step maintains
	// its dirty set alongside the silence cache.
	tracker *EnabledTracker

	// probe walks the frozen-neighborhood orbits of SilentNow on reusable
	// buffers.
	probe orbitProbe

	// Incremental silence detection: silence[p] caches the verdict of p's
	// orbit walk under the current configuration — silenceSilent and
	// silenceBroken are both cached, so a standing non-silent witness is
	// re-probed only after something near it moved, not on every check.
	// The verdict depends only on p's own state and its neighbors'
	// communication state. A silent verdict speaks for every state of p's
	// orbit, all of which share p's communication row, so Step invalidates
	// it only when p's communication state changes; a broken verdict is
	// invalidated by any move of p. Either way p's neighbors are
	// invalidated when p's communication state changes.
	//
	// The processes whose verdict is silenceUnknown are exactly those
	// below silSweep, which SilentNow has not yet probed since Reset, and
	// those queued on silUnknown, whose verdict was invalidated after a
	// probe (invalidation enqueues on the silent/broken → unknown
	// transition only, probing dequeues or lowers silSweep). silBroken
	// counts the cached silenceBroken verdicts. Together they make
	// SilentNow O(invalidated-since-last-check) instead of an O(n) sweep
	// over the verdict vector — the difference between a per-step silence
	// check costing O(activity) and costing O(n) at n = 10⁶ — and Reset
	// writes no id: it only sets silSweep to n. silUnknown holds each
	// process at most once, so its capacity of n is never outgrown; the
	// pages of it no run reaches are never written, so never resident.
	silence    []int8
	silUnknown []int32
	silSweep   int
	silBroken  int

	// Windows, in every phase of a run: a selection whose outcome the
	// engine already knows is counted, not evaluated. A window is one of
	// two kinds.
	//
	// A closed cycle. While p's communication row and its neighbors' stay
	// put, a transition of p that fires an action not marked Randomized,
	// draws no randomness and stages no communication write is a function
	// of p's internal row: the protocols of Theorems 3, 5 and 7 keep
	// turning their cur pointer long after their neighborhood settled, and
	// once the configuration is silent every neighborhood has. executeStep
	// feeds each such transition to p's cycle detector (countFeed), Brent's
	// walk of orbitProbe kept between selections: cntAnchor holds p's saved
	// internal row and cntState[p] the packed walk (cntRunning, cntClosed).
	// Once the walk returns to its anchor, p is on a closed cycle of L
	// transitions. Any other evaluation of p, a change to p's communication
	// row or a neighbor's, MarkDirty, ApplyTopology and Reset forget the
	// walk. Nothing is fed under a TrackedScheduler.
	//
	// A stepped disabled verdict. A step evaluation that finds p disabled
	// hands the tracker the verdict (judgeDisabled), and with an observer
	// attached keeps what the evaluation read: the base arcs of the
	// distinct neighbors at disReads[RowStart(p):], disSeen[p].n of them,
	// and disSeen[p].bits, sized by the first kept evaluation on a system.
	// Guards are predicates over p's own state and its neighbors'
	// communication rows, so the verdict and the reads hold until the
	// dirty rule drops the verdict.
	//
	// Either way a selection of p adds one to counts[p] (countSelect; a
	// disabled one only with an observer attached), and a count that
	// leaves 0 puts p on due. countApply, the one settle, hands a disabled
	// window to the observer as one Selected call with the kept reads, and
	// re-evaluates a cycle's at most L transitions, whatever the count,
	// with one Selected call per transition carrying the number of
	// selections it stands for. Every statistic an observer keeps is a
	// sum, a maximum or a set union of that aggregate, so recorded traces
	// are byte-identical to evaluating every selection. A step that stages
	// a communication write settles the writer's neighbors against the
	// pre-step rows before the commit (countSettleWriters), and every
	// exported stepping method ends in settle. counts and due are
	// allocated by the first window a system opens.
	//
	// Invariant: no window is open when an exported method returns. A
	// stepped verdict or a closed walk ends only between methods or on a
	// neighbor's write, so its window has settled by then and never
	// settles at a re-evaluation; MarkDirty and ApplyTopology rely on it
	// too, as their callers write rows first.
	cntState  []uint32
	cntAnchor []int32 // n × InternalWidth
	cntLand   []int32 // countApply's scratch row
	counts    []int32 // p's count, or its window's opening stamp (see live)
	due       []int32 // processes whose count is non-zero, at most dueCap of them
	dueAll    bool    // due overflowed: the next settle sweeps counts
	disReads  []int
	disSeen   []disabledSeen

	// The live set, under a MaskScheduler only: live has bit p set exactly
	// when p has no window, so a selection of p is evaluated if its bit is
	// in mask & live and counted if it is in mask &^ live. A step
	// (stepMask) reads the live set as it finds it, evaluates the first
	// set in ascending order, with visit the set it evaluated, and counts
	// the second a word at a time. A stepped disabled verdict opens a
	// window under a MaskScheduler with or without an observer.
	//
	// Under a SynchronousScheduler every process is selected at every
	// step, so a window is counted by epoch: counts[p] holds the stamp at
	// which p's window opened (its close, its stepped verdict or its last
	// settle), its count is selStamp minus that, and a step counts nothing;
	// a settle sweeps the processes off the live set. A rebase of the
	// stamps settles every window and reopens each at stamp 1. Under any
	// other MaskScheduler each counted selection adds one to counts[p], as
	// on the list path. Every other scheduler pays one predictable branch
	// at each hook.
	live  []uint64
	visit []uint64
}

// disabledSeen is what Simulator.disSeen holds for one process: how many
// distinct neighbors and bits its kept disabled evaluation read.
type disabledSeen struct{ n, bits int32 }

// Tri-state orbit-silence verdicts cached per process in
// Simulator.silence. Both polarities are pure functions of p's own state
// and its neighbors' communication rows (the same dependency cone as
// enabledness), so both stay valid under the dirty rule of the package
// comment; a silent verdict also survives p's internal-only moves.
const (
	silenceUnknown int8 = iota
	silenceSilent
	silenceBroken
)

// NewSimulator builds a simulator over a deep copy of cfg0, so the caller
// keeps the initial configuration.
func NewSimulator(sys *System, cfg0 *Config, sched Scheduler, seed uint64, obs Observer) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(sys, cfg0.Clone(), sched, seed, obs); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the simulator to a new execution — system, initial
// configuration, scheduler, seed and observer — rewinding step and round
// state and reusing every internal buffer when sys is the system of the
// previous run (the zero Simulator is valid and binds everything fresh).
//
// Unlike NewSimulator, the simulator ADOPTS cfg0 as its live
// configuration: the run mutates it in place and Config() returns it.
// This is the trial pipeline's defensive-clone elision — the caller owns
// a reusable buffer (see core.Runner), fills it per trial, and hands it
// over; it must not mutate the buffer behind the simulator's back while
// the run is in progress.
func (s *Simulator) Reset(sys *System, cfg0 *Config, sched Scheduler, seed uint64, obs Observer) error {
	if err := cfg0.Validate(sys); err != nil {
		return err
	}
	if s.sys != sys {
		s.sys = sys
		s.lastSel = nil
		s.silence = make([]int8, sys.N())
		s.silUnknown = make([]int32, 0, sys.N())
		s.cntState, s.cntAnchor, s.counts, s.due = nil, nil, nil, nil
		s.disReads, s.disSeen = s.disReads[:0], s.disSeen[:0]
		s.live, s.visit, s.pending = nil, nil, nil
		s.arena = newStepArena(sys)
	} else {
		clear(s.lastSel)
		for i := range s.silence {
			s.silence[i] = silenceUnknown
		}
		// A SynchronousScheduler leaves stamps in counts, and stepMask
		// reads commChanged by process.
		clear(s.cntState)
		clear(s.counts)
		clear(s.arena.commChanged)
	}
	s.silUnknown, s.silSweep = s.silUnknown[:0], sys.N()
	s.silBroken = 0
	s.probe.bind(sys)
	s.cfg = cfg0
	s.sched = sched
	s.tsched, s.msched = nil, nil
	if ts, ok := sched.(TrackedScheduler); ok {
		s.tsched = ts
	} else if ms, ok := sched.(MaskScheduler); ok {
		s.msched = ms
	}
	_, all := sched.(SynchronousScheduler)
	s.allSel = all && s.tsched == nil
	if n := sys.N(); s.msched != nil {
		if s.live == nil {
			w := (n + 63) / 64
			s.live, s.visit, s.pending = make([]uint64, w), make([]uint64, w), make([]uint64, w)
		}
		fillSet(s.live, n)
		fillSet(s.pending, n)
	} else if s.lastSel == nil {
		s.lastSel = make([]uint32, n)
	}
	s.obs = obs
	s.arena.seed, s.arena.derived = seed, 0
	s.step = 0
	s.round = 0
	s.roundStamp, s.selStamp = 0, 0
	s.remainingInRnd = sys.N()
	if s.tracker == nil {
		s.tracker = NewEnabledTracker(sys, cfg0)
	} else {
		s.tracker.Reset(sys, cfg0)
	}
	return nil
}

// Sys returns the underlying system.
func (s *Simulator) Sys() *System { return s.sys }

// Config returns the live configuration (mutated by Step).
func (s *Simulator) Config() *Config { return s.cfg }

// Steps returns the number of executed steps.
func (s *Simulator) Steps() int { return s.step }

// Rounds returns the number of completed rounds.
func (s *Simulator) Rounds() int { return s.round }

// fillSet sets bits 0 to n−1 of set, which has ⌈n/64⌉ words.
func fillSet(set []uint64, n int) {
	for i := range set {
		set[i] = math.MaxUint64
	}
	if n%64 != 0 {
		set[len(set)-1] = 1<<(n%64) - 1
	}
}

// Step executes one scheduler step and returns the selected processes.
// The returned slice may be a scheduler-owned buffer, or under a
// MaskScheduler the simulator's expansion of the mask: it is valid until
// the next Step call and must not be mutated.
func (s *Simulator) Step() []int {
	selected := s.advance()
	s.settle()
	if s.msched != nil {
		if cap(s.stepSel) < s.sys.N() {
			s.stepSel = make([]int, 0, s.sys.N())
		}
		selected = s.stepSel[:0]
		for j, w := range s.mask {
			for ; w != 0; w &= w - 1 {
				selected = append(selected, j<<6|bits.TrailingZeros64(w))
			}
		}
	}
	return selected
}

// advance is Step without the settle of its windows: the Run loops call
// it and settle once before they return. Under a MaskScheduler it returns
// nil, and the step's mask is in s.mask.
func (s *Simulator) advance() []int {
	var selected []int
	var k int
	var roundCompleted bool
	if s.msched != nil {
		k, roundCompleted = s.takeMask()
	} else {
		selected, roundCompleted = s.takeList()
		k = len(selected)
	}
	if s.obs != nil {
		s.obs.StepBegin(s.step, k)
	}
	s.arena.step = s.step
	if s.msched != nil {
		s.stepMask(s.mask)
	} else {
		fired, commChanged := s.executeStep(selected)
		for i, p := range selected {
			if fired[i] >= 0 {
				s.moved(p, commChanged[i])
			}
		}
	}
	if roundCompleted {
		s.round++
	}
	if s.obs != nil {
		s.obs.StepEnd(s.step, k, roundCompleted)
	}
	s.step++
	return selected
}

// takeList asks the scheduler for the step's list, checks it and stamps
// each selected process: done reports that the step completes a round.
func (s *Simulator) takeList() (selected []int, done bool) {
	if s.tsched != nil {
		selected = s.tsched.SelectTracked(s.step, s.sys, s.cfg, s.tracker)
	} else {
		selected = s.sched.Select(s.step, s.sys, s.cfg)
	}
	if len(selected) == 0 {
		panic(fmt.Sprintf("model: scheduler %s selected the empty set", s.sched.Name()))
	}
	// A selection is a set of processes. The arena writes internal rows
	// in place and has one staging row per process, so a repeated id (a
	// process evaluated twice on its own half-made step, and any
	// selection longer than n) must stop here, not as an index out of
	// range mid-step.
	mark := s.nextStamp()
	for _, p := range selected {
		if uint(p) >= uint(len(s.lastSel)) {
			panic(fmt.Sprintf("model: scheduler %s selected process %d of %d", s.sched.Name(), p, len(s.lastSel)))
		}
		if s.lastSel[p] == mark {
			panic(fmt.Sprintf("model: scheduler %s selected process %d twice in one step (%d selections, %d processes)",
				s.sched.Name(), p, len(selected), len(s.lastSel)))
		}
		if s.lastSel[p] <= s.roundStamp {
			s.remainingInRnd--
		}
		s.lastSel[p] = mark
	}
	if s.remainingInRnd > 0 {
		return selected, false
	}
	s.roundStamp = mark
	s.remainingInRnd = s.sys.N()
	return selected, true
}

// takeMask asks the MaskScheduler for the step's mask, keeps it in
// s.mask, checks it, and strikes it off the round's pending set in the
// same pass over its words: k is the number of processes selected, and
// done reports that the step completes a round, for which pending is
// refilled. Under a SynchronousScheduler it advances the step clock.
func (s *Simulator) takeMask() (k int, done bool) {
	mask := s.msched.SelectMask(s.step, s.sys, s.cfg)
	n := s.sys.N()
	if len(mask) != len(s.pending) {
		panic(fmt.Sprintf("model: scheduler %s selected a mask of %d words for %d processes", s.sched.Name(), len(mask), n))
	}
	if r := n % 64; r != 0 {
		if over := mask[len(mask)-1] >> r; over != 0 {
			panic(fmt.Sprintf("model: scheduler %s selected process %d of %d", s.sched.Name(),
				(len(mask)-1)<<6|r+bits.TrailingZeros64(over), n))
		}
	}
	var rest uint64
	for j, w := range mask {
		k += bits.OnesCount64(w)
		s.pending[j] &^= w
		rest |= s.pending[j]
	}
	if k == 0 {
		panic(fmt.Sprintf("model: scheduler %s selected the empty set", s.sched.Name()))
	}
	if s.allSel {
		if k != n {
			panic(fmt.Sprintf("model: scheduler %s declares every process but selected %d of %d", s.sched.Name(), k, n))
		}
		s.nextStamp()
	}
	if rest == 0 {
		fillSet(s.pending, n)
	}
	s.mask = mask
	return k, rest == 0
}

// nextStamp returns the stamp of the step in progress, rebasing the
// stamps first when the last one reached stampLimit.
func (s *Simulator) nextStamp() uint32 {
	if s.selStamp >= stampLimit {
		s.rebaseStamps()
	}
	s.selStamp++
	return s.selStamp
}

// stampLimit is the last selection stamp before rebaseStamps runs. It is
// a variable only so that in-package tests can lower it and rebase in
// the middle of rounds.
var stampLimit uint32 = math.MaxUint32

// rebaseStamps restarts the selection stamps: a process selected in the
// round in progress gets stamp 1, every other one 0, and the next step
// stamps 2. It runs between steps, once every stampLimit steps, so its
// O(n) pass costs nothing per step. Under a SynchronousScheduler, where
// the stamps are the windows' clock and no lastSel is kept, a settle
// closes every window and each reopens at stamp 1.
func (s *Simulator) rebaseStamps() {
	if s.allSel {
		s.settle()
		s.roundStamp, s.selStamp = 0, 1
		for p := range s.counts {
			s.counts[p] = 1
		}
		return
	}
	for p, st := range s.lastSel {
		if st > s.roundStamp {
			s.lastSel[p] = 1
		} else {
			s.lastSel[p] = 0
		}
	}
	s.roundStamp, s.selStamp = 0, 1
}

// moved applies the dirty rule to a process that fired an action: its own
// state may have changed, so its enabledness is stale. If its
// communication state changed, the neighbors' cached verdicts are stale
// too. A silenceSilent verdict outlives a move that wrote no
// communication variable: it covers p's whole deterministic
// frozen-neighborhood orbit, and such a move lands on that orbit's next
// state (a neighbor that changed its communication row in this same step
// invalidates p from its own call). That keeps SilentNow O(communication
// activity), not O(moves), where internal counters keep ticking.
func (s *Simulator) moved(p int, commChanged bool) {
	if commChanged || s.silence[p] != silenceSilent {
		s.invalidateSilence(p)
	}
	s.tracker.Invalidate(p)
	if commChanged {
		s.neighborsDirty(p)
	}
}

// rejoin runs before the tracker drops p's verdict on a neighbor's
// write or a MarkDirty (moved never meets a stepped verdict: a process
// that moved was evaluated or counted). Under a MaskScheduler the end of
// a stepped verdict puts p back in the live set; its window has settled
// (see Simulator.counts).
func (s *Simulator) rejoin(p int) {
	if s.msched != nil && s.tracker.valid[p] == verdictStepped {
		s.live[p>>6] |= 1 << (p & 63)
	}
}

// RunUntilSilent executes steps until the configuration is communication-
// silent, checking silence every checkEvery steps (and on the initial
// configuration). It returns whether silence was reached within maxSteps.
//
// Silence detection is incremental: a process's frozen-neighborhood orbit
// verdict is re-evaluated only when its own state or a neighbor's
// communication state changed since the last check, so the amortized cost
// per step is proportional to the activity, not to n. The caller must not
// mutate Config() between steps, or cached verdicts go stale. Counted
// selections are handed to the observer as the run returns.
func (s *Simulator) RunUntilSilent(maxSteps, checkEvery int) (bool, error) {
	defer s.settle()
	if checkEvery < 1 {
		checkEvery = 1
	}
	silent, err := s.SilentNow()
	if err != nil {
		return false, err
	}
	if silent {
		return true, nil
	}
	// A countdown to the next multiple of checkEvery, not a division per
	// step.
	for next := checkEvery - s.step%checkEvery; s.step < maxSteps; {
		s.advance()
		if next--; next == 0 {
			next = checkEvery
			silent, err := s.SilentNow()
			if err != nil {
				return false, err
			}
			if silent {
				return true, nil
			}
		}
	}
	return s.SilentNow()
}

// SilentNow decides whether the current configuration is communication-
// silent, reusing per-process verdicts cached since the last call and
// invalidated by Step. It is equivalent to CommSilent(Sys(), Config())
// as long as the configuration is only mutated through Step.
//
// The fast path is allocation-free and O(invalidated-since-last-check):
// a standing broken verdict answers false from a counter, and only the
// processes whose verdicts were invalidated (queued by Step/MarkDirty)
// are re-probed, then the sweep over those not yet probed since Reset
// resumes, downwards, where it stopped; the verdict vector is never
// scanned. Of those, a process whose tracker verdict is a valid
// "disabled" is a local fixed point and costs nothing more; every other
// one goes straight to the orbit walk, whose first transition evaluates
// p's guards once for both questions: the walk decides p's silence and
// hands the tracker p's enabledness as a probed verdict. Probes leave
// the configuration alone and every queued process gets the same
// verdict it would under an ascending sweep, so drain order cannot be
// observed.
func (s *Simulator) SilentNow() (bool, error) {
	if s.silBroken > 0 {
		return false, nil
	}
	for len(s.silUnknown) > 0 || s.silSweep > 0 {
		var p int
		if k := len(s.silUnknown); k > 0 {
			p, s.silUnknown = int(s.silUnknown[k-1]), s.silUnknown[:k-1]
		} else {
			s.silSweep--
			p = s.silSweep
		}
		if s.silence[p] != silenceUnknown {
			// Unreachable under the queue invariant; harmless if it ever
			// loosens.
			continue
		}
		if s.countClosed(p) {
			// p's row may lag, but under frozen inputs its cycle is its
			// orbit, and no transition of it writes communication state.
			s.silence[p] = silenceSilent
			continue
		}
		if t := s.tracker; t.valid[p] != verdictStale && t.action[p] < 0 {
			// Disabled: the orbit is closed at the first state.
			s.silence[p] = silenceSilent
			continue
		}
		silent, _, err := s.probe.walk(s.cfg, p)
		s.tracker.commit(p, s.probe.first)
		if err != nil {
			// Keep the invariant: p is still unknown and above silSweep,
			// so it is queued.
			s.silUnknown = append(s.silUnknown, int32(p))
			return false, fmt.Errorf("model: silence check at process %d: %w", p, err)
		}
		if !silent {
			s.silence[p] = silenceBroken
			s.silBroken++
			return false, nil
		}
		s.silence[p] = silenceSilent
	}
	return true, nil
}

// Tracker returns the simulator's incremental enabledness tracker. Its
// verdicts are valid as long as the configuration is only mutated through
// Step.
func (s *Simulator) Tracker() *EnabledTracker { return s.tracker }

// MarkDirty declares that process p's state was mutated outside of Step
// (fault injection, external writes) and restores the soundness of the
// incremental enabled/silence caches: p's own cached verdicts and cycle
// walk and those of its neighbors are dropped — exactly the dirty rule
// Step applies to a process that moved and changed its communication row
// (see the package comment on the invalidation invariant), and nothing
// beyond p's closed neighborhood. External mutators must call it for
// every process they touched before the next Step, SilentNow or tracker
// probe.
func (s *Simulator) MarkDirty(p int) {
	s.countForget(p)
	s.invalidateSilence(p)
	s.rejoin(p)
	s.tracker.Invalidate(p)
	s.neighborsDirty(p)
}

// neighborsDirty invalidates the cached verdicts and cycle detectors of
// p's neighbors: p's communication row changed, or may have.
func (s *Simulator) neighborsDirty(p int) {
	for _, q := range s.sys.g.Row(p) {
		s.invalidateSilence(int(q))
		s.rejoin(int(q))
		s.tracker.Invalidate(int(q))
		s.countForget(int(q))
	}
}

// invalidateSilence drops p's cached silence verdict, maintaining the
// unknown queue's invariant: a process is queued exactly when its
// verdict is silenceUnknown and it is not below silSweep, so
// re-invalidating an already-unknown process enqueues nothing.
func (s *Simulator) invalidateSilence(p int) {
	switch s.silence[p] {
	case silenceUnknown:
		return
	case silenceBroken:
		s.silBroken--
	}
	s.silence[p] = silenceUnknown
	s.silUnknown = append(s.silUnknown, int32(p))
}

// RunSteps executes exactly k further steps.
func (s *Simulator) RunSteps(k int) {
	for i := 0; i < k; i++ {
		s.advance()
	}
	s.settle()
}

// RunRounds executes steps until k further rounds have completed.
func (s *Simulator) RunRounds(k int) {
	target := s.round + k
	for s.round < target {
		s.advance()
	}
	s.settle()
}

// settle applies every open window (see Simulator.counts). Every exported
// method that steps settles before it returns, so an observer is current
// whenever its owner can look at it. Under a SynchronousScheduler the
// settle sweeps the processes off the live set; under every other
// scheduler it walks due.
func (s *Simulator) settle() {
	if s.allSel {
		n := s.sys.N()
		for j, w := range s.live {
			for w = ^w; w != 0; w &= w - 1 {
				p := j<<6 | bits.TrailingZeros64(w)
				if p >= n {
					break
				}
				s.countApply(p, 0)
			}
		}
		return
	}
	if s.dueAll {
		s.dueAll = false
		for p, k := range s.counts {
			if k != 0 {
				s.countApply(p, 0)
			}
		}
	} else {
		for _, p := range s.due {
			s.countApply(int(p), 0)
		}
	}
	s.due = s.due[:0]
}

// markDue puts p, whose count is about to leave 0, on the due list. A
// full list turns into a sweep of counts at the next settle, which then
// follows at least dueCap counts: the list costs an eighth of a byte per
// process, not four.
func (s *Simulator) markDue(p int) {
	switch {
	case s.dueAll:
	case len(s.due) == cap(s.due):
		s.dueAll = true
	default:
		s.due = append(s.due, int32(p))
	}
}

// dueCap is the due list's capacity for n processes.
func dueCap(n int) int { return max(n/32, 64) }

// keepDisabled records a step evaluation of p that found it disabled:
// the tracker takes the verdict, and with an observer attached the
// evaluation's reads are kept for p's window (see disReads). A window
// opens with an observer attached or under a MaskScheduler, where p
// leaves the live set either way.
func (s *Simulator) keepDisabled(p int) {
	s.tracker.judgeDisabled(p)
	if s.obs != nil {
		g := s.sys.g
		if len(s.disSeen) == 0 {
			s.disReads = slices.Grow(s.disReads, g.RowStart(g.N()))[:g.RowStart(g.N())]
			s.disSeen = slices.Grow(s.disSeen, g.N())[:g.N()]
		}
		agg := &s.arena.agg
		copy(s.disReads[g.RowStart(p):], agg.arcs)
		s.disSeen[p] = disabledSeen{int32(len(agg.arcs)), int32(agg.bits)}
	}
	if s.obs != nil || s.msched != nil {
		s.openWindow(p)
	}
}

// openWindow makes p's next selections counts: under a MaskScheduler p
// leaves the live set, and under a SynchronousScheduler its window opens
// at the current stamp.
func (s *Simulator) openWindow(p int) {
	if s.counts == nil {
		n := s.sys.N()
		s.counts, s.due = make([]int32, n), make([]int32, 0, dueCap(n))
	}
	if s.msched != nil {
		s.live[p>>6] &^= 1 << (p & 63)
	}
	if s.allSel {
		s.counts[p] = int32(s.selStamp)
	}
}

// Packed cycle-detector states (Simulator.cntState). 0: no walk. A
// running walk has cntRunning set, its power, the transitions after
// which it moves the anchor, in the field at cntPowerShift and the
// transitions since its anchor in the low field. The power starts at
// δ.p + 1, so a walk that starts on a cur rotation of δ.p transitions
// closes on its first return, and doubles at each move. A closed walk
// has cntClosed set and the cycle's length in the low field.
const (
	cntClosed     uint32 = 1 << 31
	cntRunning    uint32 = 1 << 30
	cntPowerShift        = 15
	cntField      uint32 = 1<<cntPowerShift - 1
)

// countClosed reports whether p is on a closed cycle: its selections are
// counts.
func (s *Simulator) countClosed(p int) bool {
	return s.cntState != nil && s.cntState[p] >= cntClosed
}

// countForget drops p's walk. p has no open window: a window settles
// before anything that forgets the walk can happen. Under a MaskScheduler
// a closed p rejoins the live set.
func (s *Simulator) countForget(p int) {
	if s.cntState != nil {
		if s.msched != nil && s.cntState[p] >= cntClosed {
			s.live[p>>6] |= 1 << (p & 63)
		}
		s.cntState[p] = 0
	}
}

// countFeed advances p's walk over the transition p just made in a step
// (fired an action not marked Randomized, drew nothing, staged no
// communication write: what the orbit walker calls silent), with p's
// internal row now the transition's result. A walk starts by anchoring
// that row; a later row equal to the anchor closes the cycle. A walk
// whose power would outgrow its field gives up, and the next transition
// fed starts a new one.
func (s *Simulator) countFeed(p int) {
	if s.cntState == nil {
		n, wi := s.sys.N(), s.sys.wi
		s.cntState = make([]uint32, n)
		s.cntAnchor = make([]int32, n*wi)
		s.cntLand = make([]int32, wi)
	}
	wi := s.sys.wi
	row := s.cfg.internalRow(p)
	anchor := s.cntAnchor[p*wi : p*wi+wi]
	st := s.cntState[p]
	if st == 0 {
		if power := uint32(s.sys.g.Degree(p) + 1); power <= cntField {
			copy(anchor, row)
			s.cntState[p] = cntRunning | power<<cntPowerShift
		}
		return
	}
	lam := st&cntField + 1
	if slices.Equal(row, anchor) {
		s.cntState[p] = cntClosed | lam
		s.openWindow(p)
		return
	}
	if power := st >> cntPowerShift & cntField; lam == power {
		if power > cntField/2 {
			s.cntState[p] = 0
			return
		}
		copy(anchor, row)
		st, lam = cntRunning|2*power<<cntPowerShift, 0
	}
	s.cntState[p] = st&^cntField | lam
}

// countSelect counts a selection of p in its window. It is small enough
// to inline: countOpen takes a count that just left 0 or wrapped.
func (s *Simulator) countSelect(p, stage int) {
	if s.counts[p]++; s.counts[p] <= 1 {
		s.countOpen(p, stage)
	}
}

// countOpen puts p, whose count just left 0, on due, or settles the
// math.MaxInt32 selections of a count that wrapped on staging row stage.
func (s *Simulator) countOpen(p, stage int) {
	if s.counts[p] == 1 {
		s.markDue(p)
		return
	}
	s.counts[p] = math.MaxInt32
	s.countApply(p, stage) // p stays due
	s.counts[p] = 1
}

// countApply settles p's window of k selections. A disabled p's goes to
// the observer as one Selected call with the kept reads. On a closed
// cycle of L transitions it re-evaluates the transitions from p's row,
// at most L of them, delivers the i-th with k/L selections, one more
// when i < k mod L, and leaves p k mod L transitions on. Without an
// observer only those k mod L run. The evaluations use the arena's
// staging row stage, which none of them writes. The dirty rule runs once
// for all k. Under a SynchronousScheduler k is the window's length on the
// step clock, and the window reopens at the current stamp; under every
// other scheduler, a MaskScheduler or not, k is the count the window's
// selections added up.
func (s *Simulator) countApply(p, stage int) {
	k := int(s.counts[p])
	if s.allSel {
		k = int(s.selStamp - uint32(k))
		s.counts[p] = int32(s.selStamp)
	} else {
		s.counts[p] = 0
	}
	if k == 0 {
		return
	}
	if s.tracker.valid[p] == verdictStepped {
		if s.obs == nil {
			return
		}
		off, e := s.sys.g.RowStart(p), s.disSeen[p]
		s.obs.Selected(s.step, p, s.disReads[off:off+int(e.n)], int(e.bits), -1, k)
		return
	}
	n := int(s.cntState[p] &^ cntClosed)
	q, r := k/n, k%n
	if s.obs == nil {
		for range r {
			s.countTransition(p, stage, false)
		}
	} else {
		row, agg := s.cfg.internalRow(p), &s.arena.agg
		for i := range min(k, n) {
			f := s.countTransition(p, stage, true)
			hits := q
			if i < r {
				hits++
			}
			s.obs.Selected(s.step, p, agg.arcs, agg.bits, f, hits)
			if i+1 == r && k > n {
				copy(s.cntLand, row)
			}
		}
		if r > 0 && k > n {
			copy(row, s.cntLand)
		}
	}
	s.moved(p, false)
}

// countTransition re-evaluates one transition of p's closed cycle and
// returns the action it fired. A transition off the cycle means p's
// inputs moved under a count, which the forget rules exclude.
func (s *Simulator) countTransition(p, stage int, record bool) int {
	a := s.arena
	f, staged := a.eval(s.cfg, p, stage, record)
	if f < 0 || staged || a.ctx.rand != nil {
		panic(fmt.Sprintf("model: process %d left its counted cycle: its inputs moved under a count", p))
	}
	return f
}
