package model

import "repro/internal/bitset"

// EnabledView is the read-only enabledness probe offered to schedulers
// and analysis code: the daemon's omniscience (Section 2), served
// incrementally. Probes are side-effect free and unrecorded — they do not
// count as communication.
type EnabledView interface {
	// Enabled reports whether p has an enabled action.
	Enabled(p int) bool
	// EnabledAction returns p's first enabled action index, or -1.
	EnabledAction(p int) int
	// AppendEnabled appends the ids of all enabled processes to dst in
	// ascending order and returns the extended slice.
	AppendEnabled(dst []int) []int
	// AllEnabled reports whether every process of set is enabled (set's
	// capacity is the process count).
	AllEnabled(set *bitset.Set) bool
}

// TrackedScheduler is an optional scheduler extension: a scheduler that
// consults enabledness should implement it to receive the simulator's
// incremental EnabledTracker instead of re-deriving the enabled set from
// scratch each step. Implementations must select exactly as their Select
// method would, so that routing through the tracker never changes a
// computation.
type TrackedScheduler interface {
	Scheduler
	// SelectTracked is Select with an incremental enabledness probe.
	SelectTracked(step int, sys *System, cfg *Config, en EnabledView) []int
}

// EnabledTracker caches per-process enabledness verdicts over one live
// configuration, invalidated by the same dirty-set rule as the
// incremental silence detector: p's enabledness depends only on p's own
// state and its neighbors' communication state (guards read nothing
// else), so a verdict goes stale only when p moves or a neighbor's
// communication row changes. Simulator.Step maintains the invalidation;
// external code mutating the configuration must call Invalidate or
// Simulator.MarkDirty itself.
//
// The tracker allocates only at construction: probes evaluate guards on a
// reusable Ctx whose own-state scratch rows are preallocated.
type EnabledTracker struct {
	sys *System
	cfg *Config

	valid  []uint8 // verdictStale, verdictProbed or verdictStepped
	action []int16 // last committed verdict: first enabled action, -1 disabled

	// AppendEnabled support: enabled mirrors the committed verdicts as a
	// bitset (bit p set iff action[p] >= 0 — recomputes touch it only when
	// the verdict flips sign), and stale queues individually invalidated
	// processes (queued[p] dedups entries); allStale replaces the queue
	// after a whole-configuration invalidation, and when the queue is full
	// (staleCap: an eighth of n, at least 64). Enumerating the enabled set
	// then costs O(stale-since-last-call) verdict repairs plus an
	// O(n/64 + |enabled|) bitset walk instead of n probe calls — the
	// per-step scan this removes was the enabled-biased daemon's large-n
	// bottleneck — and a sweep over n verdicts follows at least n/8
	// invalidations.
	enabled  *bitset.Set
	stale    []int32
	queued   []bool
	allStale bool

	probe Ctx // reusable probe context; own-state rows below
}

// NewEnabledTracker builds a tracker over cfg. cfg must only be mutated
// through the owning simulator (or with explicit Invalidate calls).
func NewEnabledTracker(sys *System, cfg *Config) *EnabledTracker {
	t := &EnabledTracker{}
	t.Reset(sys, cfg)
	return t
}

// Reset rebinds the tracker to (sys, cfg), marking every verdict stale.
// Buffers are reused when sys is the tracker's current system, so the
// trial pipeline resets trackers instead of rebuilding them.
func (t *EnabledTracker) Reset(sys *System, cfg *Config) {
	if t.sys != sys {
		t.sys = sys
		t.valid = make([]uint8, sys.N())
		t.action = make([]int16, sys.N())
		t.enabled = bitset.New(sys.N())
		t.stale = make([]int32, 0, staleCap(sys.N()))
		t.queued = make([]bool, sys.N())
		t.probe = Ctx{
			sys:      sys,
			comm:     make([]int32, sys.CommWidth()),
			internal: make([]int32, sys.InternalWidth()),
		}
	} else {
		clear(t.valid)
		for i := range t.queued {
			t.queued[i] = false
		}
		t.enabled.Clear()
	}
	// action[p] = -1 with the bitset cleared keeps the mirror invariant
	// (bit p set iff action[p] >= 0) from the very first recompute.
	for i := range t.action {
		t.action[i] = -1
	}
	t.stale = t.stale[:0]
	t.allStale = true
	t.cfg = cfg
}

var _ EnabledView = (*EnabledTracker)(nil)

// States of a tracker verdict. A stepped verdict is a disabled one that
// the simulator's step evaluation found (see judgeDisabled): it stands
// under the same dirty rule as a probed one, and while it stands the
// simulator replays p's selections instead of evaluating them.
const (
	verdictStale uint8 = iota
	verdictProbed
	verdictStepped
)

// EnabledAction returns the index of p's first enabled action, or -1 if p
// is disabled, recomputing only if p's cached verdict was invalidated.
func (t *EnabledTracker) EnabledAction(p int) int {
	if t.valid[p] != verdictStale {
		return int(t.action[p])
	}
	return t.recompute(p)
}

// recompute re-evaluates p's guards and commits the verdict.
func (t *EnabledTracker) recompute(p int) int {
	c := &t.probe
	c.aim(t.cfg, p)
	copy(c.comm, t.cfg.commRow(p))
	copy(c.internal, t.cfg.internalRow(p))
	idx := firstEnabled(c)
	t.commit(p, idx)
	return idx
}

// commit records idx, p's first enabled action (-1: disabled) under the
// configuration the tracker serves, as a probed verdict: recompute's,
// or the first transition of a silence probe's orbit walk. The enabled
// bitset changes only when the verdict changed sign — in steady state
// most invalidations re-derive the same verdict, and the mirror stays
// untouched.
func (t *EnabledTracker) commit(p, idx int) {
	t.valid[p] = verdictProbed
	if old := t.action[p]; (old >= 0) != (idx >= 0) {
		if idx >= 0 {
			t.enabled.Add(p)
		} else {
			t.enabled.Remove(p)
		}
	}
	t.action[p] = int16(idx)
}

// judgeDisabled commits the verdict of a step evaluation that found p
// disabled. It was taken against the configuration the tracker serves,
// since the simulator applies the step's dirty marks after every
// selected process evaluated, so it spares the next probe of p.
func (t *EnabledTracker) judgeDisabled(p int) {
	t.valid[p] = verdictStepped
	if t.action[p] >= 0 {
		t.enabled.Remove(p)
	}
	t.action[p] = -1
}

// Enabled reports whether p has an enabled action.
func (t *EnabledTracker) Enabled(p int) bool { return t.EnabledAction(p) >= 0 }

// AppendEnabled appends all enabled process ids to dst in ascending order
// and returns the extended slice. Stale verdicts are repaired first, then
// the enabled bitset is walked — the call never probes a process whose
// cached verdict is still valid.
func (t *EnabledTracker) AppendEnabled(dst []int) []int {
	t.repair()
	return t.enabled.Elems(dst)
}

// AllEnabled reports whether every process of set is enabled: stale
// verdicts are repaired like AppendEnabled's, then the answer is one
// pass over the words of the two bitsets, O(stale-since-last-call + n/64)
// however many processes set holds.
func (t *EnabledTracker) AllEnabled(set *bitset.Set) bool {
	t.repair()
	return set.SubsetOf(t.enabled)
}

// repair recomputes every stale verdict and empties the stale queue.
func (t *EnabledTracker) repair() {
	if t.allStale {
		t.allStale = false
		for p := 0; p < t.sys.N(); p++ {
			if t.valid[p] == verdictStale {
				t.recompute(p)
			}
		}
		for _, p32 := range t.stale {
			t.queued[p32] = false
		}
	} else {
		for _, p32 := range t.stale {
			p := int(p32)
			t.queued[p] = false
			if t.valid[p] == verdictStale {
				t.recompute(p)
			}
		}
	}
	t.stale = t.stale[:0]
}

// staleCap is the stale queue's capacity for n processes.
func staleCap(n int) int { return max(n/8, 64) }

// Invalidate marks p's cached verdict stale (p's own state changed). A
// full queue turns into a sweep (allStale), which needs no queue.
func (t *EnabledTracker) Invalidate(p int) {
	t.valid[p] = verdictStale
	if t.allStale || t.queued[p] {
		return
	}
	if len(t.stale) == cap(t.stale) {
		t.allStale = true
		return
	}
	t.queued[p] = true
	t.stale = append(t.stale, int32(p))
}
