package model

import (
	"repro/internal/rng"
)

// stepArena holds the reusable execution state behind Simulator.Step: a
// single Ctx re-aimed at each selected process, the read aggregator it
// feeds, two flat scratch arrays staging the selected processes'
// post-step rows by selection index, the fired/commChanged result
// buffers, and a single reseedable generator. After construction, the
// steady-state step path performs no heap allocation.
type stepArena struct {
	sys *System
	ctx Ctx
	agg readAgg

	// Row i holds the post-step own state of the i-th selected process
	// until the commit phase; Simulator.Step bounds a selection by n.
	commScratch     []int // n × CommWidth
	internalScratch []int

	fired       []int16 // per selected index: fired action or -1 (Spec.Validate bounds the index)
	commChanged []bool  // per selected index: did p's comm row change

	src      rng.SplitMix
	rand     *rng.Rand // wraps &src; reseeded per process
	stepSeed uint64
}

func newStepArena(sys *System) *stepArena {
	n := sys.N()
	a := &stepArena{
		sys:             sys,
		agg:             newReadAgg(sys),
		commScratch:     make([]int, n*sys.wc),
		internalScratch: make([]int, n*sys.wi),
		fired:           make([]int16, 0, n),
		commChanged:     make([]bool, 0, n),
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
	a.src.Reseed(rng.Derive(a.stepSeed, uint64(p)))
	return a.rand
}

// commRow and internalRow return staging row i of the scratch arrays.
func (a *stepArena) commRow(i int) []int {
	wc := a.sys.wc
	return a.commScratch[i*wc : (i+1)*wc : (i+1)*wc]
}

func (a *stepArena) internalRow(i int) []int {
	wi := a.sys.wi
	return a.internalScratch[i*wi : (i+1)*wi : (i+1)*wi]
}

// eval aims the context at p — own state copied from cfg into staging
// row i, neighbor reads resolving against cfg, the generator reseeded
// lazily on the first Rand call (see Ctx.Rand) — and executes p's first
// enabled action on the staged rows. With record set the evaluation's
// reads are folded into a.agg (left empty otherwise), valid until the
// next eval.
func (a *stepArena) eval(cfg *Config, p, i int, record bool) int {
	c := &a.ctx
	c.aim(cfg, p)
	c.comm = a.commRow(i)
	c.internal = a.internalRow(i)
	copy(c.comm, cfg.commRow(p))
	copy(c.internal, cfg.internalRow(p))
	a.agg.begin()
	c.agg = nil
	if record {
		c.agg = &a.agg
	}
	return execOne(c)
}

// executeStep is ExecuteStep on the arena's reusable buffers: the same
// two-phase semantics (evaluate every selected process against the
// pre-step configuration, then commit all writes), with no per-step heap
// allocation. Each process draws from the arena generator reseeded for
// (stepSeed, p). The returned slices are owned by the arena and valid
// until the next call.
func (a *stepArena) executeStep(cfg *Config, selected []int, step int, obs Observer) (fired []int16, commChanged []bool) {
	fired = a.fired[:0]
	for i, p := range selected {
		f := a.eval(cfg, p, i, obs != nil)
		fired = append(fired, int16(f))
		if obs != nil {
			obs.Selected(step, p, a.agg.qs, a.agg.bits, f, 1)
		}
	}
	commChanged = a.commChanged[:0]
	for i, p := range selected {
		changed := false
		if fired[i] >= 0 {
			comm, row := a.commRow(i), cfg.commRow(p)
			for v, nv := range comm {
				if ov := row[v]; ov != nv {
					changed = true
					if obs != nil {
						obs.CommWrite(step, p, v, ov, nv)
					}
				}
			}
			copy(row, comm)
			copy(cfg.internalRow(p), a.internalRow(i))
		}
		commChanged = append(commChanged, changed)
	}
	return fired, commChanged
}
