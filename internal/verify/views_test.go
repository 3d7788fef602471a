package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/matching"
	"repro/internal/rng"
)

// A view is everything one step of a process p, and the legitimacy
// predicate at p, can read: p's own state and constants, the degree Δ of
// the network, and each neighbor's communication state and constants
// (and, for a protocol that reads it, the port p has at the neighbor).
// Enumerating every view of every degree d ≤ Δ therefore proves a claim
// about one closed neighborhood for every network of maximum degree Δ.

// maxDelta bounds the Δ of the views a readLog records.
const maxDelta = 4

// ball declares the views one enumeration walks: those of a process of
// degree d in a network of maximum degree delta. They live on a ball
// graph (ballGraph): p is process 0 and its port i leads to process i,
// and every neighbor has degree delta, so its degree-dependent domains
// are the widest and hold every value a neighbor of smaller degree can.
type ball struct {
	delta, d int
	// structural enumerates the port p has at each neighbor over
	// 1..delta; otherwise p is port 1 of every neighbor, which is sound
	// only for a protocol that reads no back port and no variable whose
	// domain depends on the degree (readLog.structural).
	structural bool
	// build makes the system on a ball graph with the given local
	// identifiers (values 1.., one per process; nil for greedy ones).
	build func(g *graph.Graph, colors []int) (*model.System, error)
	// focus, when set, names the port whose neighbor a view of p's state
	// cfg varies: the neighbor behind it takes every communication row,
	// local identifier and (with structural) back port, and every other
	// neighbor holds one, the zero row, back port 1 and the first
	// identifier after p's. That stands for every view only where each
	// evaluation reads no port but focus(cfg), which the visit must check:
	// a body sees its neighbors only through what it reads.
	focus func(cfg *model.Config) int
}

// familyBuild is ball.build for an engine protocol family.
func familyBuild(family string) func(*graph.Graph, []int) (*model.System, error) {
	return func(g *graph.Graph, colors []int) (*model.System, error) {
		return engine.Build(g, family, colors)
	}
}

// views calls visit with every view of b: for every vector of back ports,
// every assignment of local identifiers to p and its neighbors that the
// system constructor accepts, every state of p and every communication
// row of each neighbor (with focus, of the neighbor behind focus only).
// cfg is one buffer the walk rewrites: a visit that keeps a view copies
// it. It returns the number of views.
func (b ball) views(t *testing.T, visit func(sys *model.System, cfg *model.Config)) int {
	t.Helper()
	from, to := 0, 0
	if b.focus != nil {
		from, to = 1, b.d
	}
	count := 0
	for k := from; k <= to; k++ {
		b.walk(t, k, func(sys *model.System, cfg *model.Config) {
			if k == 0 || b.focus(cfg) == k {
				visit(sys, cfg)
				count++
			}
		})
	}
	return count
}

// walk is views with every neighbor varying (k = 0) or only the one
// behind port k.
func (b ball) walk(t *testing.T, k int, visit func(sys *model.System, cfg *model.Config)) {
	t.Helper()
	back := make([]int, b.d)
	for i := range back {
		back[i] = 1
	}
	varied := back
	if k > 0 {
		varied = back[k-1 : k]
	}
	for {
		b.systems(t, ballGraph(b.delta, back), k, func(sys *model.System) {
			cfg := model.NewZeroConfig(sys)
			for more := true; more; more = nextView(sys, cfg, b.d, k) {
				visit(sys, cfg)
			}
		})
		if !b.structural || !odometer(varied, b.delta) {
			return
		}
	}
}

// systems calls each with the system on g for every assignment of local
// identifiers over the spec's constant domain to p and its neighbors
// (with k > 0, to p and the neighbor behind port k; the others take the
// first identifier after p's) that the constructor accepts: a proper
// coloring of the ball, checked by the constructor itself. The leaves
// carry p's color, which no accepted assignment gives their neighbor. A
// spec without constants has one system.
func (b ball) systems(t *testing.T, g *graph.Graph, k int, each func(*model.System)) {
	t.Helper()
	sys, err := b.build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := sys.Spec()
	switch len(spec.Const) {
	case 0:
		each(sys)
		return
	case 1:
	default:
		t.Fatalf("%s declares %d constants; views assign one", spec.Name, len(spec.Const))
	}
	palette := spec.Const[0].Domain(model.DomainInfo{N: g.N(), Delta: b.delta, Degree: b.d})
	colors := make([]int, g.N())
	ids := colors[:b.d+1]
	if k > 0 {
		ids = make([]int, 2)
	}
	for i := range ids {
		ids[i] = 1
	}
	for {
		if k > 0 {
			for q := 1; q <= b.d; q++ {
				colors[q] = ids[0]%palette + 1
			}
			colors[0], colors[k] = ids[0], ids[1]
		}
		for leaf := b.d + 1; leaf < g.N(); leaf++ {
			colors[leaf] = colors[0]
		}
		if sys, err := b.build(g, colors); err == nil {
			each(sys)
		}
		if !odometer(ids, palette) {
			return
		}
	}
}

// ballGraph returns the ball of a process of degree len(back) in a
// network of maximum degree delta: p is process 0, its port i leads to
// process i, and neighbor i has delta−1 pendant leaves, with p at its
// port back[i-1].
func ballGraph(delta int, back []int) *graph.Graph {
	d := len(back)
	b := graph.NewBuilder(1+d*delta, fmt.Sprintf("ball-%d-%d", delta, d))
	leaf := d + 1
	for i, at := range back {
		for port := 1; port <= delta; port++ {
			if port == at {
				b.MustAddEdge(i+1, 0)
			} else {
				b.MustAddEdge(i+1, leaf)
				leaf++
			}
		}
	}
	return b.Build()
}

// odometer advances digits, each over 1..hi, by one in mixed radix, the
// first the lowest, and reports false when it wraps around to all ones.
func odometer(digits []int, hi int) bool {
	for i := range digits {
		if digits[i] < hi {
			digits[i]++
			return true
		}
		digits[i] = 1
	}
	return false
}

// nextView advances cfg to the next view of the process of degree d at
// process 0: p's whole state is the low digits, each neighbor's
// communication row (with k > 0, that of neighbor k only) the next ones.
// It reports false when every view has been visited.
func nextView(sys *model.System, cfg *model.Config, d, k int) bool {
	if nextState(sys, cfg, 0) {
		return true
	}
	if k > 0 {
		return nextComm(sys, cfg, k)
	}
	for q := 1; q <= d; q++ {
		if nextComm(sys, cfg, q) {
			return true
		}
	}
	return false
}

// backBit marks a back-port read in a readLog mask.
const backBit = 1 << 15

// readLog is what one evaluation of p read: the distinct ports in
// first-read order, and per port a mask of what it read there, bit v for
// communication variable v, bit CommWidth()+v for constant v and backBit
// for the back port.
type readLog struct {
	ports [maxDelta]int
	n     int
	mask  [maxDelta + 1]uint16
}

// covers reports whether b's views stand for every view of p with the
// same state, given that the evaluation of view cfg on sys read l. With
// focus, l must read no port but focus(cfg), since the other neighbors
// held one row; otherwise no back port and no degree-dependent variable,
// since neighbor degrees and back ports were fixed. A body sees its
// neighbors only through what it reads.
func (b ball) covers(l readLog, sys *model.System, cfg *model.Config) bool {
	if b.focus != nil {
		return l.n == 0 || l.n == 1 && l.ports[0] == b.focus(cfg)
	}
	return !l.structural(sys.Spec(), sys.N(), b.delta)
}

// structural reports whether the log read a back port, or a neighbor
// variable whose domain depends on the degree, in a network of maximum
// degree delta: what a view with fixed neighbor degrees and back ports
// cannot stand for.
func (l readLog) structural(spec *model.Spec, n, delta int) bool {
	var dependent uint16 = backBit
	for v, vs := range append(slices.Clip(spec.Comm), spec.Const...) {
		for deg := 2; deg <= delta; deg++ {
			if vs.Domain(model.DomainInfo{N: n, Delta: delta, Degree: deg}) != vs.Domain(model.DomainInfo{N: n, Delta: delta, Degree: 1}) {
				dependent |= 1 << v
			}
		}
	}
	for _, m := range l.mask {
		if m&dependent != 0 {
			return true
		}
	}
	return false
}

// evaluation is what one evaluation of p did: the action it fired, the
// own state it left (communication variables, then internal ones) and
// what it read.
type evaluation struct {
	action int
	own    [4]int
	reads  readLog
}

// recorder is the model.View one evaluation of process p reads its
// neighbors through: it answers from cfg on sys's graph, where nbr lists
// the neighbor behind each of p's ports, and logs each read.
type recorder struct {
	sys *model.System
	cfg *model.Config
	p   int
	nbr []int
	log readLog
}

func (r *recorder) note(port int, bit uint16) {
	if r.log.mask[port] == 0 {
		r.log.ports[r.log.n] = port
		r.log.n++
	}
	r.log.mask[port] |= bit
}

func (r *recorder) NeighborComm(_ *model.Ctx, port, v int) int {
	r.note(port, 1<<v)
	return r.cfg.Comm(r.nbr[port-1], v)
}

func (r *recorder) NeighborConst(_ *model.Ctx, port, v int) int {
	r.note(port, 1<<(r.sys.CommWidth()+v))
	return r.sys.Const(r.nbr[port-1], v)
}

func (r *recorder) BackPort(_ *model.Ctx, port int) int {
	r.note(port, backBit)
	return r.sys.Graph().BackPort(r.p, port)
}

// evaluator evaluates a process of a view once through a recorder,
// reusing its buffers from one evaluation to the next.
type evaluator struct {
	rec                 recorder
	nbr, comm, internal []int
}

// run evaluates process 0 of cfg on sys, running the first enabled action
// when apply is set (drawing from rnd), and leaves cfg as it was.
func (ev *evaluator) run(sys *model.System, cfg *model.Config, apply bool, rnd *rng.Rand) evaluation {
	return ev.runAt(sys, cfg, 0, apply, rnd)
}

// runAt is run at process p.
func (ev *evaluator) runAt(sys *model.System, cfg *model.Config, p int, apply bool, rnd *rng.Rand) evaluation {
	g := sys.Graph()
	ev.nbr, ev.comm, ev.internal = ev.nbr[:0], ev.comm[:0], ev.internal[:0]
	for port := 1; port <= g.Degree(p); port++ {
		ev.nbr = append(ev.nbr, g.Neighbor(p, port))
	}
	for v := range sys.CommWidth() {
		ev.comm = append(ev.comm, cfg.Comm(p, v))
	}
	for v := range sys.InternalWidth() {
		ev.internal = append(ev.internal, cfg.Internal(p, v))
	}
	var e evaluation
	if len(ev.comm)+len(ev.internal) > len(e.own) {
		panic(fmt.Sprintf("%s: own state wider than an evaluation holds", sys.Spec().Name))
	}
	ev.rec = recorder{sys: sys, cfg: cfg, p: p, nbr: ev.nbr}
	e.action = model.Evaluate(sys, &ev.rec, p, ev.nbr, ev.comm, ev.internal, apply, rnd)
	e.reads = ev.rec.log
	copy(e.own[copy(e.own[:], ev.comm):], ev.internal)
	return e
}

// describe prints the view of process 0 in cfg.
func describe(sys *model.System, cfg *model.Config) string {
	spec := sys.Spec()
	var b strings.Builder
	fmt.Fprintf(&b, "Δ=%d, p of degree %d:", sys.Delta(), sys.Graph().Degree(0))
	state := func(q int) {
		for v, vs := range spec.Comm {
			fmt.Fprintf(&b, " %s=%d", vs.Name, cfg.Comm(q, v))
		}
		for v, vs := range spec.Const {
			fmt.Fprintf(&b, " %s=%d", vs.Name, sys.Const(q, v))
		}
	}
	state(0)
	for v, vs := range spec.Internal {
		fmt.Fprintf(&b, " %s=%d", vs.Name, cfg.Internal(0, v))
	}
	for port := 1; port <= sys.Graph().Degree(0); port++ {
		fmt.Fprintf(&b, "; port %d (p at its port %d):", port, sys.Graph().BackPort(0, port))
		state(port)
	}
	return b.String()
}

// TestViewProof enumerates every view of a process of degree d ≤ Δ in a
// network of maximum degree Δ ≤ 4, under COLORING, MIS and MATCHING, and
// so proves for every such network:
//
//	(a) 1-efficiency: every step reads at most one neighbor;
//	(b) silent ⇒ legitimate: every view whose frozen-neighborhood orbit is
//	    silent satisfies the predicate at p. A silent configuration is one
//	    in which every process's orbit is silent, so it satisfies the
//	    predicate at every process.
//
// MATCHING is held to (a) only: its (b) needs the pair view, both closed
// neighborhoods of an edge. The test also shows that (b) fails for
// COLORING-FROZEN and MIS-FROZEN, and logs the first counterexample view:
// the local seed of every Theorem 1 witness. COLORING's and MIS's views
// fix neighbor degrees and back ports, MATCHING's vary only the neighbor
// behind cur.p (matchingViews), and the test checks on every view that
// what the step read is covered (ball.covers).
func TestViewProof(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		family         string
		views          func(delta, d int) ball
		pairView       bool // (b) is not claimed
		counterexample bool
	}{
		{engine.FamColoring, fixedViews(engine.FamColoring), false, false},
		{engine.FamMIS, fixedViews(engine.FamMIS), false, false},
		{engine.FamMatching, matchingViews, true, false},
		{engine.FamFrozen, fixedViews(engine.FamFrozen), false, true},
		{engine.FamMISFrozen, fixedViews(engine.FamMISFrozen), false, true},
	} {
		t.Run(tc.family, func(t *testing.T) {
			t.Parallel()
			var ev evaluator
			rnd := rng.New(1)
			views, first := 0, ""
			for delta := 1; delta <= maxDelta; delta++ {
				for d := 1; d <= delta; d++ {
					b := tc.views(delta, d)
					views += b.views(t, func(sys *model.System, cfg *model.Config) {
						reads := ev.run(sys, cfg, true, rnd).reads
						if reads.n > 1 {
							t.Fatalf("a step reads %d neighbors at %s", reads.n, describe(sys, cfg))
						}
						if !b.covers(reads, sys, cfg) {
							t.Fatalf("a step reads %+v at %s, which the views do not cover", reads, describe(sys, cfg))
						}
						if tc.pairView {
							return
						}
						silent, err := model.ProcessSilent(sys, cfg, 0)
						if err != nil {
							t.Fatal(err)
						}
						if !silent || sys.Spec().Legitimate(sys, cfg, 0) {
							return
						}
						if !tc.counterexample {
							t.Fatalf("silent but illegitimate at %s", describe(sys, cfg))
						}
						if first == "" {
							first = describe(sys, cfg)
						}
					})
				}
			}
			switch {
			case tc.counterexample && first == "":
				t.Fatalf("no silent illegitimate view in %d", views)
			case tc.counterexample:
				t.Logf("%d views; first silent illegitimate one: %s", views, first)
			case tc.pairView:
				t.Logf("%d views: each step reads at most one neighbor", views)
			default:
				t.Logf("%d views: each step reads at most one neighbor, every silent view is legitimate", views)
			}
		})
	}
}

// fixedViews declares the views of a family's process of degree d in a
// network of maximum degree delta with fixed neighbor degrees and back
// ports: they cover a protocol that reads no back port and no
// degree-dependent variable.
func fixedViews(family string) func(delta, d int) ball {
	return func(delta, d int) ball { return ball{delta: delta, d: d, build: familyBuild(family)} }
}

// matchingViews declares the MATCHING views of a process of degree d in a
// network of maximum degree delta: structural (every back port), with
// only the neighbor behind cur.p varying. They cover every evaluation
// that reads no other port.
func matchingViews(delta, d int) ball {
	return ball{
		delta: delta, d: d, structural: true,
		build: familyBuild(engine.FamMatching),
		focus: func(cfg *model.Config) int { return cfg.Internal(0, matching.VarCur) + 1 },
	}
}
