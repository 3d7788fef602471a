package model

import (
	"math/bits"

	"repro/internal/rng"
)

// stepArena holds the reusable execution state behind Simulator.Step: a
// single Ctx re-aimed at each selected process, the read aggregator it
// feeds, one flat array staging the communication rows written during
// the step, the list of selections that wrote one, the fired/commChanged
// result buffers, and a single reseedable generator. After construction,
// the steady-state step path performs no heap allocation.
type stepArena struct {
	sys *System
	ctx Ctx
	agg readAgg

	// Row k holds the post-step communication row of the k-th process
	// that called SetComm in this step, and writers[k] is its selection
	// index: the commit phase visits these and nothing else. Internal rows
	// are written where they live. Simulator.Step bounds a selection by n.
	commScratch []int32 // n × CommWidth
	writers     []int32 // ascending selection indices

	fired       []int16 // per selected index: fired action or -1 (Spec.Validate bounds the index)
	commChanged []bool  // per selected index: did p's comm row change

	// The generator of process p at step step draws from
	// rng.Derive(rng.Derive(seed, step), p). The step seed is derived on the
	// step's first draw and kept for the others: derived is 1 + the step it
	// belongs to (0: none), and a step that draws nothing derives nothing.
	src      rng.SplitMix
	rand     *rng.Rand // wraps &src; reseeded per process
	seed     uint64
	step     int
	stepSeed uint64
	derived  int
}

func newStepArena(sys *System) *stepArena {
	n := sys.N()
	a := &stepArena{
		sys:         sys,
		agg:         newReadAgg(sys),
		commScratch: make([]int32, n*sys.wc),
		writers:     make([]int32, 0, n),
		fired:       make([]int16, 0, n),
		commChanged: make([]bool, n),
	}
	a.ctx = Ctx{sys: sys, arena: a}
	a.rand = rng.FromSource(&a.src)
	return a
}

// processRand reseeds the arena's shared generator for process p of the
// current step. The stream is exactly rng.New(rng.Derive(stepSeed, p)),
// so reusing the generator does not perturb determinism. The returned
// Rand is valid until the next processRand call; the step engine executes
// processes sequentially, so no two live users overlap.
func (a *stepArena) processRand(p int) *rng.Rand {
	if a.derived != a.step+1 {
		a.stepSeed, a.derived = rng.Derive(a.seed, uint64(a.step)), a.step+1
	}
	a.src.Reseed(rng.Derive(a.stepSeed, uint64(p)))
	return a.rand
}

// commRow returns staging row k.
func (a *stepArena) commRow(k int) []int32 {
	wc := a.sys.wc
	return a.commScratch[k*wc : (k+1)*wc : (k+1)*wc]
}

// eval aims the context at p — own rows aliasing cfg's, staging row k
// ready for the first SetComm, neighbor reads resolving against cfg, the
// generator reseeded lazily on the first Rand call (see Ctx.Rand) — and
// executes p's first enabled action. staged reports whether it wrote its
// communication row, which then sits in row k while cfg still holds the
// pre-step one. With record set the evaluation's reads are folded into
// a.agg (left empty otherwise), valid until the next eval.
func (a *stepArena) eval(cfg *Config, p, k int, record bool) (fired int, staged bool) {
	c := &a.ctx
	c.aim(cfg, p)
	c.comm = cfg.commRow(p)
	c.internal = cfg.internalRow(p)
	c.stage = a.commRow(k)
	a.agg.begin(p)
	c.agg = nil
	if record {
		c.agg = &a.agg
	}
	fired = execOne(c)
	return fired, c.stage == nil
}

// commit copies staging row k over p's communication row, reporting each
// changed variable to obs, and returns whether any changed.
func (a *stepArena) commit(cfg *Config, p, k, step int, obs Observer) bool {
	changed := false
	row := cfg.commRow(p)
	for v, nv := range a.commRow(k) {
		if ov := row[v]; ov != nv {
			changed = true
			row[v] = nv
			if obs != nil {
				obs.CommWrite(step, p, v, int(ov), int(nv))
			}
		}
	}
	return changed
}

// executeStep performs one step of the selected processes with the
// two-phase semantics of ref.Step (evaluate every selected process
// against the pre-step configuration, then commit all communication
// writes in selection order) on the arena's reusable buffers, with no
// per-step heap allocation. Each process draws from the arena generator
// reseeded for (stepSeed, p). A process whose disabled verdict stands or
// that is on a closed cycle is not evaluated: its selection is a count in
// its window (see Simulator.counts), it reports fired -1, and the settle
// moves a cycle's p. The returned slices are owned by the arena and valid
// until the next call.
func (s *Simulator) executeStep(selected []int) (fired []int16, commChanged []bool) {
	a, cfg, obs := s.arena, s.cfg, s.obs
	fired, writers := a.fired[:0], a.writers[:0]
	for i, p := range selected {
		if s.tracker.valid[p] == verdictStepped {
			if s.obs != nil {
				s.countSelect(p, len(writers))
			}
			fired = append(fired, -1)
			continue
		}
		if s.countClosed(p) {
			s.countSelect(p, len(writers))
			fired = append(fired, -1)
			continue
		}
		f, staged := s.evalSelected(p, len(writers))
		fired = append(fired, int16(f))
		if staged {
			writers = append(writers, int32(i))
		}
	}
	s.countSettleWriters(selected, writers)
	commChanged = a.commChanged[:len(selected)]
	clear(commChanged)
	for k, i := range writers {
		commChanged[i] = a.commit(cfg, selected[i], k, s.step, obs)
	}
	return fired, commChanged
}

// stepMask is executeStep and advance's dirty marks under a
// MaskScheduler. Word by word, it reads the live set as the step found it
// (an evaluation takes only the process it evaluates off it) and splits
// the mask: the selected processes with a window, mask &^ live, are
// counted in counts, or under a SynchronousScheduler by the step clock,
// which needs no pass; those without, mask & live, are evaluated in
// ascending order, so the evaluations, Selected calls, writers and
// CommWrites come in the order executeStep gives them. visit keeps the
// evaluated set for the dirty marks, and the step costs O(evaluated +
// counted + n/64). fired and commChanged are indexed by process, and
// commChanged is all false between steps.
func (s *Simulator) stepMask(mask []uint64) {
	a := s.arena
	fired, writers := a.fired[:s.sys.N()], a.writers[:0]
	for j, m := range mask {
		live := s.live[j]
		if !s.allSel {
			for w := m &^ live; w != 0; w &= w - 1 {
				s.countSelect(j<<6|bits.TrailingZeros64(w), len(writers))
			}
		}
		w := m & live
		s.visit[j] = w
		for ; w != 0; w &= w - 1 {
			p := j<<6 | bits.TrailingZeros64(w)
			f, staged := s.evalSelected(p, len(writers))
			fired[p] = int16(f)
			if staged {
				writers = append(writers, int32(p))
			}
		}
	}
	s.countSettleWriters(nil, writers)
	for k, p := range writers {
		a.commChanged[p] = a.commit(s.cfg, int(p), k, s.step, s.obs)
	}
	for j, w := range s.visit {
		for ; w != 0; w &= w - 1 {
			if p := j<<6 | bits.TrailingZeros64(w); fired[p] >= 0 {
				s.moved(p, a.commChanged[p])
			}
		}
	}
	for _, p := range writers {
		a.commChanged[p] = false
	}
}

// evalSelected evaluates selected process p on staging row stage and
// keeps what the step engine keeps of it: a disabled verdict with its
// reads, or a transition fed to p's cycle detector.
func (s *Simulator) evalSelected(p, stage int) (fired int, staged bool) {
	a, obs := s.arena, s.obs
	fired, staged = a.eval(s.cfg, p, stage, obs != nil)
	if obs != nil {
		obs.Selected(s.step, p, a.agg.arcs, a.agg.bits, fired, 1)
	}
	if fired < 0 {
		s.keepDisabled(p)
	}
	if s.tsched == nil {
		if fired >= 0 && !staged && a.ctx.rand == nil && !s.sys.spec.Actions[fired].Randomized {
			s.countFeed(p)
		} else {
			s.countForget(p)
		}
	}
	return fired, staged
}

// countSettleWriters settles the windows of the writers' neighbors
// against the rows they were taken under, before the commit changes
// them. The settles stage on the first row no writer holds. writers holds
// indices into selected, or process ids when selected is nil.
func (s *Simulator) countSettleWriters(selected []int, writers []int32) {
	if !s.allSel && len(s.due) == 0 && !s.dueAll {
		return
	}
	for _, i := range writers {
		p := int(i)
		if selected != nil {
			p = selected[i]
		}
		for _, q := range s.sys.g.Row(p) {
			if s.countPending(int(q)) {
				s.countApply(int(q), len(writers))
			}
		}
	}
}

// countPending reports whether q has selections counted and not applied.
// Under a SynchronousScheduler every process off the live set has (its
// window may be empty, which countApply skips).
func (s *Simulator) countPending(q int) bool {
	if s.allSel {
		return s.live[q>>6]&(1<<(q&63)) == 0
	}
	return s.counts[q] > 0
}
