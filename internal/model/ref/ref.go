// Package ref is the reference semantics of the computational model
// (Section 2 of the paper), kept naive so a reader can check it against
// the paper by eye: every evaluation runs on a fresh context over private
// copies of the process's rows (model.Evaluate), every enabled set is a
// rescan, and every silence verdict follows each orbit with a string-keyed
// visited set. It is what *An Introduction to Classic DEVS* calls the
// abstract simulator: it defines the semantics, and the engine in package
// model (step arena, enabledness tracker, orbit walker, replay memo) is
// judged against it by FuzzSimulatorVsReference and
// TestStepMatchesReference.
//
// Only tests import this package; TestExportsHaveCallers fails on any
// other importer.
package ref

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/rng"
)

// rows returns private copies of process p's own state in cfg.
func rows(sys *model.System, cfg *model.Config, p int) (comm, internal []int) {
	comm = make([]int, sys.CommWidth())
	for v := range comm {
		comm[v] = cfg.Comm(p, v)
	}
	internal = make([]int, sys.InternalWidth())
	for v := range internal {
		internal[v] = cfg.Internal(p, v)
	}
	return comm, internal
}

// enabledAction returns the index of p's first enabled action in cfg, or
// -1 if p is disabled.
func enabledAction(sys *model.System, cfg *model.Config, p int) int {
	comm, internal := rows(sys, cfg, p)
	action, _, _ := model.Evaluate(sys, cfg, p, comm, internal, false, nil)
	return action
}

// EnabledSet returns the ids of all enabled processes in cfg, in
// ascending order. It is never nil: a fixpoint yields an empty slice.
func EnabledSet(sys *model.System, cfg *model.Config) []int {
	out := make([]int, 0, sys.N())
	for p := range sys.N() {
		if enabledAction(sys, cfg, p) >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// Step performs one scheduler step on cfg in place: every process in
// selected evaluates its guards against the pre-step configuration and
// executes its first enabled action, then all writes are committed at
// once (configuration γ_{i+1} is obtained from γ_i after all processes in
// s_i execute one enabled action, if any). randFor supplies each
// process's generator for this step; with a nil randFor an action that
// draws panics. obs, when non-nil, gets one Selected call per selected
// process, then one CommWrite per changed variable, in selection order.
// Step returns the fired action per selected process (-1: disabled).
func Step(sys *model.System, cfg *model.Config, selected []int, step int, randFor func(p int) *rng.Rand, obs model.Observer) []int {
	fired := make([]int, len(selected))
	comms := make([][]int, len(selected))
	internals := make([][]int, len(selected))
	for i, p := range selected {
		var r *rng.Rand
		if randFor != nil {
			r = randFor(p)
		}
		comms[i], internals[i] = rows(sys, cfg, p)
		action, reads, bits := model.Evaluate(sys, cfg, p, comms[i], internals[i], true, r)
		fired[i] = action
		if obs != nil {
			obs.Selected(step, p, reads, bits, action, 1)
		}
	}
	for i, p := range selected {
		if fired[i] < 0 {
			continue
		}
		for v, nv := range comms[i] {
			if ov := cfg.Comm(p, v); ov != nv {
				if obs != nil {
					obs.CommWrite(step, p, v, ov, nv)
				}
				cfg.SetComm(p, v, nv)
			}
		}
		for v, x := range internals[i] {
			cfg.SetInternal(p, v, x)
		}
	}
	return fired
}

// Silent decides whether cfg is a silent configuration (Definition 3):
// whether no computation from cfg changes a communication variable. For
// each process p it follows p's orbit with every neighbor's communication
// frozen at its value in cfg, as the daemon that selects p alone forever
// runs it. The configuration is not silent if some orbit changes p's
// communication row or reaches an enabled Randomized action; every orbit
// that instead reaches a disabled state or a state it visited before
// closes silent. Orbits are finite because local state spaces are, so
// there is no cap; the visited set costs memory linear in the orbit. An
// action that draws without being marked Randomized panics.
func Silent(sys *model.System, cfg *model.Config) bool {
	for p := range sys.N() {
		if !orbitSilent(sys, cfg, p) {
			return false
		}
	}
	return true
}

// orbitSilent follows process p's frozen-neighborhood orbit from cfg and
// reports whether it leaves p's communication row as it is.
func orbitSilent(sys *model.System, cfg *model.Config, p int) bool {
	comm, internal := rows(sys, cfg, p)
	visited := map[string]bool{}
	for {
		key := fmt.Sprint(comm, internal)
		if visited[key] {
			return true
		}
		visited[key] = true
		action, _, _ := model.Evaluate(sys, cfg, p, comm, internal, false, nil)
		if action < 0 {
			return true
		}
		if sys.Spec().Actions[action].Randomized {
			return false
		}
		next := slices.Clone(comm)
		model.Evaluate(sys, cfg, p, next, internal, true, nil)
		if !slices.Equal(next, comm) {
			return false
		}
	}
}

// Sim is the reference simulator: model.Simulator's stepping, round
// accounting and silence detection with every step through Step, every
// enabledness probe a rescan and every silence check through Silent.
// Given the system, scheduler, seed, observer and initial configuration
// of a model.Simulator, it walks through the same configurations and
// hands its observer the same Selected aggregates and CommWrite calls.
type Sim struct {
	sys   *model.System
	cfg   *model.Config
	sched model.Scheduler
	seed  uint64
	obs   model.Observer

	step, rounds int
	seen         map[int]bool // processes selected in the round in progress
	fired        []int
}

// NewSim builds a reference simulator over a copy of cfg0.
func NewSim(sys *model.System, cfg0 *model.Config, sched model.Scheduler, seed uint64, obs model.Observer) *Sim {
	return &Sim{sys: sys, cfg: cfg0.Clone(), sched: sched, seed: seed, obs: obs, seen: map[int]bool{}}
}

// Config returns the live configuration. A caller may write it between
// steps: the reference keeps no cache to repair.
func (s *Sim) Config() *model.Config { return s.cfg }

// Steps returns the number of executed steps.
func (s *Sim) Steps() int { return s.step }

// Rounds returns the number of completed rounds.
func (s *Sim) Rounds() int { return s.rounds }

// Fired returns the fired action of each process the latest step
// selected, in selection order (-1: disabled).
func (s *Sim) Fired() []int { return s.fired }

// Step executes one scheduler step and returns the selected processes.
// A daemon that consults enabledness (a model.TrackedScheduler) gets a
// view whose every probe is a rescan; a round completes when every
// process has been selected since the last one did.
func (s *Sim) Step() []int {
	var selected []int
	if ts, ok := s.sched.(model.TrackedScheduler); ok {
		selected = ts.SelectTracked(s.step, s.sys, s.cfg, view{s.sys, s.cfg})
	} else {
		selected = s.sched.Select(s.step, s.sys, s.cfg)
	}
	selected = slices.Clone(selected)
	if s.obs != nil {
		s.obs.StepBegin(s.step, selected)
	}
	stepSeed := rng.Derive(s.seed, uint64(s.step))
	s.fired = Step(s.sys, s.cfg, selected, s.step, func(p int) *rng.Rand {
		return rng.New(rng.Derive(stepSeed, uint64(p)))
	}, s.obs)
	for _, p := range selected {
		s.seen[p] = true
	}
	roundCompleted := len(s.seen) == s.sys.N()
	if roundCompleted {
		s.rounds++
		clear(s.seen)
	}
	if s.obs != nil {
		s.obs.StepEnd(s.step, selected, roundCompleted)
	}
	s.step++
	return selected
}

// RunRounds executes steps until k further rounds have completed.
func (s *Sim) RunRounds(k int) {
	for target := s.rounds + k; s.rounds < target; {
		s.Step()
	}
}

// RunUntilSilent is model.Simulator.RunUntilSilent: it checks silence on
// the current configuration, then steps while fewer than maxSteps steps
// have run in total, checking after every step whose count is a multiple
// of checkEvery, and reports whether it reached silence.
func (s *Sim) RunUntilSilent(maxSteps, checkEvery int) bool {
	checkEvery = max(checkEvery, 1)
	if Silent(s.sys, s.cfg) {
		return true
	}
	for s.step < maxSteps {
		s.Step()
		if s.step%checkEvery == 0 && Silent(s.sys, s.cfg) {
			return true
		}
	}
	return Silent(s.sys, s.cfg)
}

// view is the model.EnabledView Sim hands tracked daemons: every probe is
// a rescan of cfg.
type view struct {
	sys *model.System
	cfg *model.Config
}

func (v view) EnabledAction(p int) int { return enabledAction(v.sys, v.cfg, p) }

func (v view) Enabled(p int) bool { return v.EnabledAction(p) >= 0 }

func (v view) AppendEnabled(dst []int) []int { return append(dst, EnabledSet(v.sys, v.cfg)...) }

func (v view) AllEnabled(set *bitset.Set) bool {
	for _, p := range set.Elems(nil) {
		if !v.Enabled(p) {
			return false
		}
	}
	return true
}
