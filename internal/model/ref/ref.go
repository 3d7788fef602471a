// Package ref is the reference semantics of the computational model
// (Section 2 of the paper), kept naive so a reader can check it against
// the paper by eye. Every evaluation runs on a fresh context over private
// copies of the process's rows (model.Evaluate), and every neighbor read
// goes through the reference's own model.View: a walk of its own port
// lists, changed only by its own topology rule, that records the
// neighbors and bits read itself. Every enabled set is a rescan, and
// every silence verdict follows each orbit with a string-keyed visited
// set. It is what *An Introduction to Classic DEVS* calls the abstract
// simulator: it defines the semantics, and the engine in package model
// (port rows, read aggregation, step arena, enabledness tracker, orbit
// walker, cycle detectors, disabled replays) is judged against it by FuzzSimulatorVsReference
// and TestStepMatchesReference.
//
// Of a model.System the reference takes the spec, the constants, N and Δ,
// and the graph once, as its starting topology. The context an evaluation
// runs on still checks a write against the system's domain tables, and a
// daemon still sees the system it was given.
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

// net is the reference's own picture of the network: the neighbor behind
// each port of each process, seeded once from a system's graph, the
// seeded lists a joining process gets its edges back from, which
// processes are crashed, each process's variable domains, the variables'
// at its live degree and the constants' at its seeded one, and the
// numbering of the arcs model.Observer.Selected names neighbors by.
type net struct {
	sys     *model.System
	ports   [][]int // ports[p][i] is the neighbor behind port i+1 of p
	base    [][]int
	crashed []bool

	// The arc (p, q) is arcStart[p] plus q's index in arcRow[p]: the
	// graph's RowStart and BaseRow, which no topology event moves, taken
	// once, so no arc comes from the engine's port bookkeeping.
	arcStart []int
	arcRow   [][]int32

	commDom, internalDom, constDom [][]int
}

// newNet seeds a network from sys's graph as it stands.
func newNet(sys *model.System) *net {
	g, spec := sys.Graph(), sys.Spec()
	n := &net{sys: sys, crashed: make([]bool, g.N())}
	for p := range g.N() {
		n.ports = append(n.ports, g.Neighbors(p))
		n.base = append(n.base, g.Neighbors(p))
		n.arcStart = append(n.arcStart, g.RowStart(p))
		n.arcRow = append(n.arcRow, g.BaseRow(p))
		n.commDom = append(n.commDom, nil)
		n.internalDom = append(n.internalDom, nil)
		n.refresh(p)
		var dom []int
		for _, vs := range spec.Const {
			dom = append(dom, vs.Domain(n.info(p)))
		}
		n.constDom = append(n.constDom, dom)
	}
	return n
}

// info is what p's domains are computed from: N and Δ as the system
// states them, and p's live degree, at least 1 so no domain empties.
func (n *net) info(p int) model.DomainInfo {
	return model.DomainInfo{N: n.sys.N(), Delta: n.sys.Delta(), Degree: max(len(n.ports[p]), 1)}
}

// refresh recomputes p's variable domains at its live degree.
func (n *net) refresh(p int) {
	n.commDom[p], n.internalDom[p] = nil, nil
	for _, vs := range n.sys.Spec().Comm {
		n.commDom[p] = append(n.commDom[p], vs.Domain(n.info(p)))
	}
	for _, vs := range n.sys.Spec().Internal {
		n.internalDom[p] = append(n.internalDom[p], vs.Domain(n.info(p)))
	}
}

// unlink removes the edge {u, v}: at each endpoint the last port moves
// into the one the edge held.
func (n *net) unlink(u, v int) {
	for _, e := range [][2]int{{u, v}, {v, u}} {
		row := n.ports[e[0]]
		i := slices.Index(row, e[1])
		if i < 0 {
			panic(fmt.Sprintf("ref: no edge {%d,%d} to remove", u, v))
		}
		row[i] = row[len(row)-1]
		n.ports[e[0]] = row[:len(row)-1]
	}
}

// link adds the edge {u, v} as the last port of each endpoint.
func (n *net) link(u, v int) {
	n.ports[u] = append(n.ports[u], v)
	n.ports[v] = append(n.ports[v], u)
}

// reads is the view one evaluation reads its neighbors through. It finds
// each neighbor in the network's port lists and its state in cfg, and
// records what model.Observer.Selected carries: the arcs of the distinct
// neighbors read, in first-read order, and the bits read, each
// (neighbor, kind, variable) counted once at model.BitsFor of the
// network's domain.
type reads struct {
	n    *net
	cfg  *model.Config
	arcs []int
	seen map[string]bool
	bits int
}

// read returns the neighbor behind port of c's process and records the
// read of its variable v of kind ("comm" or "const"), whose domain is
// dom[q][v].
func (r *reads) read(c *model.Ctx, port int, kind string, v int, dom [][]int) int {
	p := c.P()
	q := r.n.ports[p][port-1]
	if a := r.n.arcStart[p] + slices.Index(r.n.arcRow[p], int32(q)); !slices.Contains(r.arcs, a) {
		r.arcs = append(r.arcs, a)
	}
	if k := fmt.Sprint(q, kind, v); !r.seen[k] {
		r.seen[k] = true
		r.bits += model.BitsFor(dom[q][v])
	}
	return q
}

func (r *reads) NeighborComm(c *model.Ctx, port, v int) int {
	return r.cfg.Comm(r.read(c, port, "comm", v, r.n.commDom), v)
}

func (r *reads) NeighborConst(c *model.Ctx, port, v int) int {
	return r.n.sys.Const(r.read(c, port, "const", v, r.n.constDom), v)
}

func (r *reads) BackPort(c *model.Ctx, port int) int {
	q := r.n.ports[c.P()][port-1]
	return slices.Index(r.n.ports[q], c.P()) + 1
}

// evaluate runs model.Evaluate for p on its rows comm and internal, with
// its neighbors read from cfg through a fresh reads view, and returns the
// action and the view.
func (n *net) evaluate(cfg *model.Config, p int, comm, internal []int, apply bool, r *rng.Rand) (int, *reads) {
	rd := &reads{n: n, cfg: cfg, seen: map[string]bool{}}
	return model.Evaluate(n.sys, rd, p, n.ports[p], comm, internal, apply, r), rd
}

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
func (n *net) enabledAction(cfg *model.Config, p int) int {
	comm, internal := rows(n.sys, cfg, p)
	action, _ := n.evaluate(cfg, p, comm, internal, false, nil)
	return action
}

// EnabledSet returns the ids of all enabled processes in cfg, in
// ascending order, on sys's graph as it stands. It is never nil: a
// fixpoint yields an empty slice.
func EnabledSet(sys *model.System, cfg *model.Config) []int { return newNet(sys).enabledSet(cfg) }

func (n *net) enabledSet(cfg *model.Config) []int {
	out := make([]int, 0, len(n.ports))
	for p := range n.ports {
		if n.enabledAction(cfg, p) >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// Step performs one scheduler step on cfg in place, on sys's graph as it
// stands: every process in selected evaluates its guards against the
// pre-step configuration and executes its first enabled action, then all
// writes are committed at once (configuration γ_{i+1} is obtained from
// γ_i after all processes in s_i execute one enabled action, if any).
// randFor supplies each process's generator for this step; with a nil
// randFor an action that draws panics. obs, when non-nil, gets one
// Selected call per selected process, then one CommWrite per changed
// variable, in selection order. Step returns the fired action per
// selected process (-1: disabled).
func Step(sys *model.System, cfg *model.Config, selected []int, step int, randFor func(p int) *rng.Rand, obs model.Observer) []int {
	return newNet(sys).step(cfg, selected, step, randFor, obs)
}

func (n *net) step(cfg *model.Config, selected []int, step int, randFor func(p int) *rng.Rand, obs model.Observer) []int {
	fired := make([]int, len(selected))
	comms := make([][]int, len(selected))
	internals := make([][]int, len(selected))
	for i, p := range selected {
		var r *rng.Rand
		if randFor != nil {
			r = randFor(p)
		}
		comms[i], internals[i] = rows(n.sys, cfg, p)
		action, rd := n.evaluate(cfg, p, comms[i], internals[i], true, r)
		fired[i] = action
		if obs != nil {
			obs.Selected(step, p, rd.arcs, rd.bits, action, 1)
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

// Silent decides whether cfg is a silent configuration (Definition 3) on
// sys's graph as it stands: whether no computation from cfg changes a
// communication variable. For each process p it follows p's orbit with
// every neighbor's communication frozen at its value in cfg, as the
// daemon that selects p alone forever runs it. The configuration is not
// silent if some orbit changes p's communication row or reaches an
// enabled Randomized action; every orbit that instead reaches a disabled
// state or a state it visited before closes silent. Orbits are finite
// because local state spaces are, so there is no cap; the visited set
// costs memory linear in the orbit. An action that draws without being
// marked Randomized panics.
func Silent(sys *model.System, cfg *model.Config) bool { return newNet(sys).silent(cfg) }

func (n *net) silent(cfg *model.Config) bool {
	for p := range n.ports {
		if !n.orbitSilent(cfg, p) {
			return false
		}
	}
	return true
}

// orbitSilent follows process p's frozen-neighborhood orbit from cfg and
// reports whether it leaves p's communication row as it is.
func (n *net) orbitSilent(cfg *model.Config, p int) bool {
	comm, internal := rows(n.sys, cfg, p)
	visited := map[string]bool{}
	for {
		key := fmt.Sprint(comm, internal)
		if visited[key] {
			return true
		}
		visited[key] = true
		action, _ := n.evaluate(cfg, p, comm, internal, false, nil)
		if action < 0 {
			return true
		}
		if n.sys.Spec().Actions[action].Randomized {
			return false
		}
		next := slices.Clone(comm)
		n.evaluate(cfg, p, next, internal, true, nil)
		if !slices.Equal(next, comm) {
			return false
		}
	}
}

// Sim is the reference simulator: model.Simulator's stepping, round
// accounting, silence detection, corruption and topology events, with
// every step through Step, every enabledness probe a rescan, every
// silence check through Silent, and the network its own. Given the
// system, scheduler, seed, observer and initial configuration of a
// model.Simulator, and the same corruptions and topology events, it walks
// through the same configurations and hands its observer the same
// Selected aggregates and CommWrite calls.
type Sim struct {
	net   *net
	cfg   *model.Config
	sched model.Scheduler
	seed  uint64
	obs   model.Observer

	step, rounds int
	seen         map[int]bool // processes selected in the round in progress
	fired        []int
}

// NewSim builds a reference simulator over a copy of cfg0, on sys's graph
// as it stands.
func NewSim(sys *model.System, cfg0 *model.Config, sched model.Scheduler, seed uint64, obs model.Observer) *Sim {
	return &Sim{net: newNet(sys), cfg: cfg0.Clone(), sched: sched, seed: seed, obs: obs, seen: map[int]bool{}}
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

// EnabledSet is the package's EnabledSet on the live configuration and
// the simulator's own network.
func (s *Sim) EnabledSet() []int { return s.net.enabledSet(s.cfg) }

// Silent is the package's Silent on the live configuration and the
// simulator's own network.
func (s *Sim) Silent() bool { return s.net.silent(s.cfg) }

// Corrupt redraws the whole state of process p uniformly over its
// domains in the simulator's own network: communication variables first,
// then internal ones, one r.Intn each.
func (s *Sim) Corrupt(p int, r *rng.Rand) {
	for v, d := range s.net.commDom[p] {
		s.cfg.SetComm(p, v, r.Intn(d))
	}
	for v, d := range s.net.internalDom[p] {
		s.cfg.SetInternal(p, v, r.Intn(d))
	}
}

// ApplyTopology applies ev to the simulator's own network. A removed
// edge's port at each endpoint goes to the endpoint's last port, a
// restored edge becomes each endpoint's last port, a crash removes the
// crashed process's edges from its last port down, and a join zeroes the
// joining process's state and restores its seeded edges to live
// processes in seeded port order. Every process whose neighborhood
// changed (both endpoints; the crashed or joining process and its former
// or new neighbors) then has its domains recomputed at its live degree
// and its values reduced modulo them. An event that is not valid for the
// current topology panics.
func (s *Sim) ApplyTopology(ev model.TopologyEvent) {
	n, u := s.net, ev.U
	affected := []int{u}
	switch ev.Kind {
	case model.TopoEdgeRemove:
		n.unlink(u, ev.V)
		affected = append(affected, ev.V)
	case model.TopoEdgeAdd:
		if n.crashed[u] || n.crashed[ev.V] || slices.Contains(n.ports[u], ev.V) || !slices.Contains(n.base[u], ev.V) {
			panic(fmt.Sprintf("ref: TopoEdgeAdd{%d,%d} is not a removed edge between live processes", u, ev.V))
		}
		n.link(u, ev.V)
		affected = append(affected, ev.V)
	case model.TopoCrash:
		if n.crashed[u] {
			panic(fmt.Sprintf("ref: TopoCrash{%d}: already crashed", u))
		}
		affected = append(affected, n.ports[u]...)
		for len(n.ports[u]) > 0 {
			n.unlink(u, n.ports[u][len(n.ports[u])-1])
		}
		n.crashed[u] = true
	case model.TopoJoin:
		if !n.crashed[u] {
			panic(fmt.Sprintf("ref: TopoJoin{%d}: not crashed", u))
		}
		n.crashed[u] = false
		for _, q := range n.base[u] {
			if !n.crashed[q] {
				n.link(u, q)
			}
		}
		affected = append(affected, n.ports[u]...)
		for v := range n.commDom[u] {
			s.cfg.SetComm(u, v, 0)
		}
		for v := range n.internalDom[u] {
			s.cfg.SetInternal(u, v, 0)
		}
	default:
		panic(fmt.Sprintf("ref: unknown topology event kind %d", ev.Kind))
	}
	for _, p := range affected {
		n.refresh(p)
		for v, d := range n.commDom[p] {
			s.cfg.SetComm(p, v, s.cfg.Comm(p, v)%d)
		}
		for v, d := range n.internalDom[p] {
			s.cfg.SetInternal(p, v, s.cfg.Internal(p, v)%d)
		}
	}
}

// Step executes one scheduler step and returns the selected processes.
// A daemon that consults enabledness (a model.TrackedScheduler) gets a
// view whose every probe is a rescan; a round completes when every
// process has been selected since the last one did.
func (s *Sim) Step() []int {
	var selected []int
	sys := s.net.sys
	if ts, ok := s.sched.(model.TrackedScheduler); ok {
		selected = ts.SelectTracked(s.step, sys, s.cfg, enabledView{s.net, s.cfg})
	} else {
		selected = s.sched.Select(s.step, sys, s.cfg)
	}
	selected = slices.Clone(selected)
	if s.obs != nil {
		s.obs.StepBegin(s.step, len(selected))
	}
	stepSeed := rng.Derive(s.seed, uint64(s.step))
	s.fired = s.net.step(s.cfg, selected, s.step, func(p int) *rng.Rand {
		return rng.New(rng.Derive(stepSeed, uint64(p)))
	}, s.obs)
	for _, p := range selected {
		s.seen[p] = true
	}
	roundCompleted := len(s.seen) == sys.N()
	if roundCompleted {
		s.rounds++
		clear(s.seen)
	}
	if s.obs != nil {
		s.obs.StepEnd(s.step, len(selected), roundCompleted)
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
	if s.Silent() {
		return true
	}
	for s.step < maxSteps {
		s.Step()
		if s.step%checkEvery == 0 && s.Silent() {
			return true
		}
	}
	return s.Silent()
}

// enabledView is the model.EnabledView Sim hands tracked daemons: every
// probe is a rescan of cfg.
type enabledView struct {
	n   *net
	cfg *model.Config
}

func (v enabledView) EnabledAction(p int) int { return v.n.enabledAction(v.cfg, p) }

func (v enabledView) Enabled(p int) bool { return v.EnabledAction(p) >= 0 }

func (v enabledView) AppendEnabled(dst []int) []int { return append(dst, v.n.enabledSet(v.cfg)...) }

func (v enabledView) AllEnabled(set *bitset.Set) bool {
	for _, p := range set.Elems(nil) {
		if !v.Enabled(p) {
			return false
		}
	}
	return true
}
