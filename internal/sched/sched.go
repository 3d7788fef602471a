// Package sched provides schedulers (daemons) for the simulator. The
// paper assumes a distributed fair scheduler: any non-empty subset of
// processes may be selected at each step, and every process is selected
// infinitely often. All schedulers here satisfy distributed fairness
// either surely (synchronous, round-robin, window-bounded) or with
// probability 1 (random selections).
//
// Selection sits on the per-step hot path, so every scheduler reuses an
// internal selection buffer: the slice returned by Select is valid until
// the next Select call on the same scheduler and must not be mutated or
// retained. Consequently a scheduler instance must not be shared by
// concurrently running simulators (the experiment pool builds one per
// trial). Schedulers that consult enabledness also implement
// model.TrackedScheduler, so a Simulator serves their probes from its
// incremental EnabledTracker instead of an O(n) from-scratch rescan;
// both paths select identically.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
)

// Resettable is implemented by every scheduler in this package:
// Reset(seed) rewinds the scheduler to the exact state of a freshly
// constructed instance with that seed (same selection stream, same
// derived generator streams), reusing its buffers. The experiment pool
// resets one scheduler instance per worker across trials instead of
// constructing a fresh one per trial; because a reset instance selects
// identically to a new one, the reuse never perturbs a computation.
type Resettable interface {
	// Reset rewinds the scheduler to its freshly-constructed state for
	// seed. Schedulers that ignore seeds ignore the argument.
	Reset(seed uint64)
}

// Compile-time checks: every scheduler is resettable, the synchronous
// one declares that it selects every process, and the random-subset one
// hands the simulator masks.
var (
	_ model.SynchronousScheduler = (*Synchronous)(nil)
	_ model.MaskScheduler        = (*RandomSubset)(nil)

	_ Resettable = (*Synchronous)(nil)
	_ Resettable = (*CentralRoundRobin)(nil)
	_ Resettable = (*CentralRandom)(nil)
	_ Resettable = (*RandomSubset)(nil)
	_ Resettable = (*EnabledBiased)(nil)
	_ Resettable = (*LaziestFair)(nil)
)

// Synchronous selects every process at every step.
type Synchronous struct {
	buf   []int
	mask  []uint64
	maskN int // the process count mask was built for
}

// NewSynchronous returns a Synchronous scheduler.
func NewSynchronous() *Synchronous { return &Synchronous{} }

// Reset implements Resettable (Synchronous is stateless).
func (s *Synchronous) Reset(uint64) {}

// Name implements model.Scheduler.
func (*Synchronous) Name() string { return "synchronous" }

// SelectsAll implements model.SynchronousScheduler: Select returns every
// process in ascending order, and SelectMask every bit below n.
func (*Synchronous) SelectsAll() {}

// SelectMask implements model.MaskScheduler.
func (s *Synchronous) SelectMask(_ int, sys *model.System, _ *model.Config) []uint64 {
	if n := sys.N(); s.maskN != n {
		s.mask, s.maskN = make([]uint64, (n+63)/64), n
		for p := range n {
			s.mask[p>>6] |= 1 << (p & 63)
		}
	}
	return s.mask
}

// Select implements model.Scheduler.
func (s *Synchronous) Select(_ int, sys *model.System, _ *model.Config) []int {
	if len(s.buf) != sys.N() {
		s.buf = make([]int, sys.N())
		for i := range s.buf {
			s.buf[i] = i
		}
	}
	return s.buf
}

// CentralRoundRobin selects a single process per step, cycling through
// ids — the classic fair central daemon.
type CentralRoundRobin struct {
	sel [1]int
}

// NewCentralRoundRobin returns a CentralRoundRobin scheduler.
func NewCentralRoundRobin() *CentralRoundRobin { return &CentralRoundRobin{} }

// Reset implements Resettable (the cycle position derives from the step
// index, so there is no state to rewind).
func (s *CentralRoundRobin) Reset(uint64) {}

// Name implements model.Scheduler.
func (*CentralRoundRobin) Name() string { return "central-rr" }

// Select implements model.Scheduler.
func (s *CentralRoundRobin) Select(step int, sys *model.System, _ *model.Config) []int {
	s.sel[0] = step % sys.N()
	return s.sel[:]
}

// CentralRandom selects one uniformly random process per step (fair with
// probability 1).
type CentralRandom struct {
	src rng.SplitMix
	r   *rng.Rand
	sel [1]int
}

// NewCentralRandom returns a CentralRandom scheduler with its own stream.
func NewCentralRandom(seed uint64) *CentralRandom {
	s := &CentralRandom{}
	s.r = rng.FromSource(&s.src)
	s.Reset(seed)
	return s
}

// Reset implements Resettable: the generator is rewound to the stream of
// NewCentralRandom(seed).
func (s *CentralRandom) Reset(seed uint64) {
	s.src.Reseed(rng.DeriveString(seed, "sched-central-random"))
}

// Name implements model.Scheduler.
func (*CentralRandom) Name() string { return "central-random" }

// Select implements model.Scheduler.
func (s *CentralRandom) Select(_ int, sys *model.System, _ *model.Config) []int {
	s.sel[0] = s.r.Intn(sys.N())
	return s.sel[:]
}

// RandomSubset selects a uniformly random non-empty subset of processes
// per step — the least structured distributed fair scheduler.
type RandomSubset struct {
	src  rng.SplitMix
	r    *rng.Rand
	buf  []int
	mask []uint64
}

// NewRandomSubset returns a RandomSubset scheduler with its own stream.
func NewRandomSubset(seed uint64) *RandomSubset {
	s := &RandomSubset{}
	s.r = rng.FromSource(&s.src)
	s.Reset(seed)
	return s
}

// Reset implements Resettable: the generator is rewound to the stream of
// NewRandomSubset(seed); the selection buffers are kept.
func (s *RandomSubset) Reset(seed uint64) {
	s.src.Reseed(rng.DeriveString(seed, "sched-random-subset"))
}

// Name implements model.Scheduler.
func (*RandomSubset) Name() string { return "random-subset" }

// Select implements model.Scheduler.
func (s *RandomSubset) Select(_ int, sys *model.System, _ *model.Config) []int {
	s.buf = s.r.AppendSubsetNonEmpty(s.buf[:0], sys.N())
	return s.buf
}

// SelectMask implements model.MaskScheduler: Select's subset, drawn from
// the same stream, as a mask.
func (s *RandomSubset) SelectMask(_ int, sys *model.System, _ *model.Config) []uint64 {
	s.mask = s.r.AppendSubsetMaskNonEmpty(s.mask[:0], sys.N())
	return s.mask
}

// EnabledBiased selects a random non-empty subset of the enabled
// processes when any exist (falling back to a random singleton
// otherwise). It models daemons that never waste activations; note the
// paper's round definition still counts selections of disabled
// processes, which this daemon avoids until a fixpoint.
type EnabledBiased struct {
	src     rng.SplitMix
	r       *rng.Rand
	enabled []int
	idxs    []int
	out     []int
}

// NewEnabledBiased returns an EnabledBiased scheduler with its own stream.
func NewEnabledBiased(seed uint64) *EnabledBiased {
	s := &EnabledBiased{}
	s.r = rng.FromSource(&s.src)
	s.Reset(seed)
	return s
}

// Reset implements Resettable: the generator is rewound to the stream of
// NewEnabledBiased(seed); the selection buffers are kept.
func (s *EnabledBiased) Reset(seed uint64) {
	s.src.Reseed(rng.DeriveString(seed, "sched-enabled"))
}

// Name implements model.Scheduler.
func (*EnabledBiased) Name() string { return "enabled-biased" }

// Select implements model.Scheduler: SelectTracked over a fresh tracker.
func (s *EnabledBiased) Select(step int, sys *model.System, cfg *model.Config) []int {
	return s.SelectTracked(step, sys, cfg, model.NewEnabledTracker(sys, cfg))
}

// SelectTracked implements model.TrackedScheduler: identical selections,
// with enabledness answered by the simulator's incremental tracker.
func (s *EnabledBiased) SelectTracked(_ int, sys *model.System, _ *model.Config, en model.EnabledView) []int {
	s.enabled = en.AppendEnabled(s.enabled[:0])
	return s.fromEnabled(sys)
}

func (s *EnabledBiased) fromEnabled(sys *model.System) []int {
	if len(s.enabled) == 0 {
		s.out = append(s.out[:0], s.r.Intn(sys.N()))
		return s.out
	}
	s.idxs = s.r.AppendSubsetNonEmpty(s.idxs[:0], len(s.enabled))
	s.out = s.out[:0]
	for _, j := range s.idxs {
		s.out = append(s.out, s.enabled[j])
	}
	return s.out
}

// LaziestFair is an adversarial-but-fair central daemon: at each step it
// selects the single process that has gone longest without selection,
// breaking ties toward *disabled* processes (wasting the activation) and
// then toward lower degree, then lower id. Every process is selected at
// least once every n steps, so the daemon is fair, while being maximally
// unhelpful to protocols that need their enabled processes scheduled.
//
// The daemon selects exactly one process per step, so after every process
// has been selected once the last-selection steps are pairwise distinct
// and the "stalest" bucket always holds exactly one process: selection
// degenerates to strict FIFO in order of previous selection. The
// implementation exploits that shape instead of rescanning a last-step
// vector: a warmup bucket of never-selected ids (where the paper's
// disabled/degree tie-break actually engages) feeds a FIFO ring that
// serves every subsequent pick in O(1). On a static system the bucket is
// kept in descending (degree, id) order, so the tie-break's answer is the
// last disabled id in it, else its last id, found from the end and
// removed in place: a pick costs the ids it passes over, and none when
// the tracker reports the whole bucket enabled (one pass over the words
// of two bitsets). A dynamic system's degrees move between picks (crash,
// join, rewire) without a word to the daemon, so re-deriving the order
// would cost a sort per pick; there the bucket is scanned with the full
// three-way comparison, which needs no order.
// Selections are identical to the historical two-pass O(n) scan —
// TestLaziestFairMatchesReferenceScan replays both against the same
// enabledness streams.
type LaziestFair struct {
	n        int          // process count the buckets are built for
	g        *graph.Graph // static graph the never bucket is ordered for (nil: unordered)
	never    []int        // never-selected ids (warmup bucket)
	neverSet *bitset.Set  // the same ids as a set, for EnabledView.AllEnabled
	full     []int        // all n ids in fullG's order, kept across Reset
	fullG    *graph.Graph
	ring     []int // FIFO ring of selected ids, stalest first; cap == n
	head     int   // ring index of the stalest selected id
	size     int   // live entries in ring
	sel      [1]int
}

// NewLaziestFair returns a LaziestFair daemon.
func NewLaziestFair() *LaziestFair {
	return &LaziestFair{}
}

// Reset implements Resettable: the selection history is forgotten (every
// process reads as never selected), as in a fresh instance.
func (s *LaziestFair) Reset(uint64) {
	s.n = 0
	s.never = s.never[:0]
	s.head, s.size = 0, 0
}

// Name implements model.Scheduler.
func (*LaziestFair) Name() string { return "laziest-fair" }

// Select implements model.Scheduler: SelectTracked over a fresh tracker.
func (s *LaziestFair) Select(step int, sys *model.System, cfg *model.Config) []int {
	return s.SelectTracked(step, sys, cfg, model.NewEnabledTracker(sys, cfg))
}

// SelectTracked implements model.TrackedScheduler: identical selections,
// with enabledness answered by the simulator's incremental tracker.
func (s *LaziestFair) SelectTracked(step int, sys *model.System, _ *model.Config, en model.EnabledView) []int {
	return s.pick(sys, en.Enabled, en.AllEnabled)
}

// pick selects the next process. enabled answers the tie-break's probe;
// allEnabled reports whether a whole set is enabled, which spares a
// warmup pick the probes when no never-selected id is disabled (the
// paper's 1-efficient protocols keep every process
// enabled, and the tie-break consumes the disabled ids first: in both
// cases the search would otherwise cross the whole bucket on every pick).
func (s *LaziestFair) pick(sys *model.System, enabled func(p int) bool, allEnabled func(*bitset.Set) bool) []int {
	if n := sys.N(); n != s.n {
		s.grow(n)
	}
	var chosen int
	switch {
	case len(s.never) == 0:
		// Steady state: one selection per step keeps last-selection steps
		// pairwise distinct, so the stalest bucket is the ring head alone
		// and the tie-break (including its enabledness probe) never runs.
		chosen = s.ring[s.head]
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.size--
	case sys.Dynamic():
		// Warmup, live degrees: every never-selected id shares the
		// stalest "step" (-1), so the tie-break picks among all of them.
		s.g = nil
		best, bestDisabled, bestDeg, bestIdx := -1, false, 0, -1
		for i, p := range s.never {
			disabled := !enabled(p)
			deg := sys.Graph().Degree(p)
			if best < 0 ||
				(disabled != bestDisabled && disabled) ||
				(disabled == bestDisabled && (deg < bestDeg || (deg == bestDeg && p < best))) {
				best, bestDisabled, bestDeg, bestIdx = p, disabled, deg, i
			}
		}
		chosen = best
		s.never[bestIdx] = s.never[len(s.never)-1]
		s.never = s.never[:len(s.never)-1]
		s.neverSet.Remove(chosen)
	default:
		// Warmup, fixed degrees: the same tie-break read off the order.
		if g := sys.Graph(); g != s.g {
			s.order(g)
		}
		i := len(s.never) - 1
		if !allEnabled(s.neverSet) {
			for j := i; j >= 0; j-- {
				if !enabled(s.never[j]) {
					i = j
					break
				}
			}
		}
		chosen = s.never[i]
		s.never = append(s.never[:i], s.never[i+1:]...)
		s.neverSet.Remove(chosen)
	}
	tail := s.head + s.size
	if tail >= len(s.ring) {
		tail -= len(s.ring)
	}
	s.ring[tail] = chosen
	s.size++
	s.sel[0] = chosen
	return s.sel[:]
}

// order sorts the never bucket by descending (degree, id) in g. A full
// bucket, which is what every trial's first pick finds, is copied from
// the last full bucket sorted for the same graph instead.
func (s *LaziestFair) order(g *graph.Graph) {
	s.g = g
	full := len(s.never) == s.n
	if full && g == s.fullG {
		copy(s.never, s.full)
		return
	}
	slices.SortFunc(s.never, func(p, q int) int {
		if c := cmp.Compare(g.Degree(q), g.Degree(p)); c != 0 {
			return c
		}
		return cmp.Compare(q, p)
	})
	if full {
		s.full, s.fullG = append(s.full[:0], s.never...), g
	}
}

// grow rebuilds the buckets for n processes, keeping history: ids the
// daemon has already selected stay in the ring in selection order, new
// ids join the never bucket (they read as never selected, exactly as the
// historical last-step vector grew with -1 entries). Ids beyond a shrunk
// n are dropped from both buckets. The common path — Reset followed by a
// first pick — has an empty ring and reuses the buffer in place.
func (s *LaziestFair) grow(n int) {
	s.g = nil // the bucket changes: whatever order it had is gone
	for p := s.n; p < n; p++ {
		s.never = append(s.never, p)
	}
	if s.size == 0 {
		if cap(s.ring) >= n {
			s.ring = s.ring[:n]
		} else {
			s.ring = make([]int, n)
		}
	} else {
		ring := make([]int, n)
		size := 0
		for i := 0; i < s.size; i++ {
			j := s.head + i
			if j >= s.n {
				j -= s.n
			}
			if p := s.ring[j]; p < n {
				ring[size] = p
				size++
			}
		}
		s.ring, s.size = ring, size
	}
	if n < s.n {
		kept := s.never[:0]
		for _, p := range s.never {
			if p < n {
				kept = append(kept, p)
			}
		}
		s.never = kept
	}
	if s.neverSet == nil || s.neverSet.Cap() != n {
		s.neverSet = bitset.New(n)
	} else {
		s.neverSet.Clear()
	}
	for _, p := range s.never {
		s.neverSet.Add(p)
	}
	s.head, s.n = 0, n
}

// ByName constructs a scheduler from its CLI name.
func ByName(name string, seed uint64) (model.Scheduler, error) {
	switch name {
	case "synchronous", "sync":
		return NewSynchronous(), nil
	case "central-rr":
		return NewCentralRoundRobin(), nil
	case "central-random":
		return NewCentralRandom(seed), nil
	case "random-subset", "distributed":
		return NewRandomSubset(seed), nil
	case "enabled-biased":
		return NewEnabledBiased(seed), nil
	case "laziest-fair", "adversarial":
		return NewLaziestFair(), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (known: %v)", name, Names())
	}
}

// Names lists the scheduler names accepted by ByName.
func Names() []string {
	return []string{
		"synchronous", "central-rr", "central-random", "random-subset",
		"enabled-biased", "laziest-fair",
	}
}
