package fault

// Churn adversaries: the topology-side counterpart of the state-fault
// Adversary. Where an Adversary corrupts process state, a ChurnAdversary
// mutates the live network through model.Simulator.ApplyTopology —
// removing and restoring edges, crashing and rejoining processes — on
// its own injection Schedule. Cut and CrashJoin alternate between a
// disturb firing and an undo firing, so an even total count returns the
// topology to the base graph before the final convergence; Rewire heals
// the previous firing's damage before inflicting fresh damage, keeping
// the deficit bounded at K edges.
//
// The determinism contract matches Adversary exactly: all randomness
// comes from a private generator rewound by Reset(seed), Reset-then-
// Churn replays the stream of a fresh instance, and the steady-state
// Churn path performs no heap allocation once its buffers are warm.

import (
	"fmt"

	"repro/internal/model"
)

// ChurnAdversary mutates the live topology of a dynamic system (one
// built with model.System.MutableCopy) through the simulator. Churn
// appends every affected process — endpoints of changed edges, crashed
// or rejoined processes and their neighbors — to dst and returns the
// extended slice; the caller measures containment from that set. Cache
// maintenance (MarkDirty, domain refresh) happens inside ApplyTopology.
type ChurnAdversary interface {
	// Name identifies the churn shape in tables and CLI flags.
	Name() string
	// Reset rewinds the private randomness and clears pending undo state
	// (removed edges, crashed processes) for a fresh trial on a freshly
	// reset topology.
	Reset(seed uint64)
	// Churn fires one topology disturbance.
	Churn(sim *model.Simulator, dst []int) []int
}

// Rewire removes K uniformly chosen live edges per firing, restoring
// the previous firing's removals first — a network that keeps losing
// and regaining random links. At most K edges are ever missing, and
// they change on every firing.
type Rewire struct {
	pk      picker
	k       int
	removed [][2]int // last firing's removals, restored next firing
	edges   [][2]int // reusable live-edge enumeration buffer
}

// NewRewire returns a Rewire adversary cutting k edges per firing (at
// least 1).
func NewRewire(k int) *Rewire {
	a := &Rewire{k: max(1, k)}
	a.pk.init()
	return a
}

// Name implements ChurnAdversary.
func (*Rewire) Name() string { return "rewire" }

// Reset implements ChurnAdversary.
func (a *Rewire) Reset(seed uint64) {
	a.pk.reset(seed)
	a.removed = a.removed[:0]
}

// Churn implements ChurnAdversary: restore last firing's edges, then
// remove k fresh ones drawn uniformly from the live edge set (in
// deterministic port-order enumeration).
func (a *Rewire) Churn(sim *model.Simulator, dst []int) []int {
	for _, e := range a.removed {
		dst = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeAdd, U: e[0], V: e[1]}, dst)
	}
	a.removed = a.removed[:0]
	g := sim.Sys().Graph()
	a.edges = a.edges[:0]
	for p := 0; p < g.N(); p++ {
		for port := 1; port <= g.Degree(p); port++ {
			if q := g.Neighbor(p, port); p < q {
				a.edges = append(a.edges, [2]int{p, q})
			}
		}
	}
	// Partial Fisher-Yates: the first k entries become a uniform sample.
	k := min(a.k, len(a.edges))
	for i := 0; i < k; i++ {
		j := i + a.pk.r.Intn(len(a.edges)-i)
		a.edges[i], a.edges[j] = a.edges[j], a.edges[i]
		e := a.edges[i]
		dst = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeRemove, U: e[0], V: e[1]}, dst)
		a.removed = append(a.removed, e)
	}
	return dst
}

// Cut alternates between severing and reconnecting a component: a
// disturb firing removes every boundary edge of a BFS ball of K
// processes around a random epicenter (disconnecting the ball from the
// rest — a min-cut-flavoured partition along the ball boundary), and
// the next firing restores exactly those edges. The ball size is capped
// at n-1 so the complement stays non-empty.
type Cut struct {
	pk picker
	k  int

	dist   []int
	queue  []int
	inball []bool
	cut    [][2]int // severed boundary edges, restored next firing
}

// NewCut returns a Cut adversary isolating a BFS ball of k processes
// per firing (at least 1).
func NewCut(k int) *Cut {
	a := &Cut{k: max(1, k)}
	a.pk.init()
	return a
}

// Name implements ChurnAdversary.
func (*Cut) Name() string { return "cut" }

// Reset implements ChurnAdversary.
func (a *Cut) Reset(seed uint64) {
	a.pk.reset(seed)
	a.cut = a.cut[:0]
}

// Churn implements ChurnAdversary.
func (a *Cut) Churn(sim *model.Simulator, dst []int) []int {
	if len(a.cut) > 0 { // reconnect firing
		for _, e := range a.cut {
			dst = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeAdd, U: e[0], V: e[1]}, dst)
		}
		a.cut = a.cut[:0]
		return dst
	}
	g := sim.Sys().Graph()
	n := g.N()
	if cap(a.dist) < n {
		a.dist = make([]int, n)
		a.inball = make([]bool, n)
		a.queue = make([]int, 0, n)
	}
	a.dist = a.dist[:n]
	a.inball = a.inball[:n]
	for i := range a.dist {
		a.dist[i] = -1
		a.inball[i] = false
	}
	// BFS ball in deterministic port order, exactly Cluster's traversal.
	epi := a.pk.r.Intn(n)
	a.dist[epi] = 0
	a.queue = append(a.queue[:0], epi)
	ballSize := min(a.k, n-1)
	taken := 0
	for head := 0; head < len(a.queue) && taken < ballSize; head++ {
		p := a.queue[head]
		a.inball[p] = true
		taken++
		for port := 1; port <= g.Degree(p); port++ {
			q := g.Neighbor(p, port)
			if a.dist[q] == -1 {
				a.dist[q] = a.dist[p] + 1
				a.queue = append(a.queue, q)
			}
		}
	}
	// Sever the ball boundary (every live edge leaving the ball).
	for _, p := range a.queue[:taken] {
		for port := 1; port <= g.Degree(p); port++ {
			if q := g.Neighbor(p, port); !a.inball[q] {
				a.cut = append(a.cut, [2]int{p, q})
			}
		}
	}
	for _, e := range a.cut {
		dst = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeRemove, U: e[0], V: e[1]}, dst)
	}
	return dst
}

// CrashJoin alternates between crashing K uniformly chosen processes —
// they leave with all their edges and stop moving — and rejoining them
// with fresh initial state and their surviving base edges restored.
type CrashJoin struct {
	pk      picker
	k       int
	crashed []int // last firing's victims, rejoined next firing
}

// NewCrashJoin returns a CrashJoin adversary crashing k processes per
// firing (at least 1).
func NewCrashJoin(k int) *CrashJoin {
	a := &CrashJoin{k: max(1, k)}
	a.pk.init()
	return a
}

// Name implements ChurnAdversary.
func (*CrashJoin) Name() string { return "crashjoin" }

// Reset implements ChurnAdversary.
func (a *CrashJoin) Reset(seed uint64) {
	a.pk.reset(seed)
	a.crashed = a.crashed[:0]
}

// Churn implements ChurnAdversary.
func (a *CrashJoin) Churn(sim *model.Simulator, dst []int) []int {
	if len(a.crashed) > 0 { // rejoin firing
		for _, p := range a.crashed {
			dst = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoJoin, U: p}, dst)
		}
		a.crashed = a.crashed[:0]
		return dst
	}
	n := sim.Sys().N()
	k := min(a.k, n)
	a.crashed = append(a.crashed[:0], a.pk.victims(n, k)...)
	for _, p := range a.crashed {
		dst = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoCrash, U: p}, dst)
	}
	return dst
}

// ChurnByName constructs a churn adversary from its CLI/table name with
// per-firing size k.
func ChurnByName(name string, k int) (ChurnAdversary, error) {
	switch name {
	case "rewire":
		return NewRewire(k), nil
	case "cut":
		return NewCut(k), nil
	case "crashjoin":
		return NewCrashJoin(k), nil
	default:
		return nil, fmt.Errorf("fault: unknown churn adversary %q (known: %v)", name, ChurnNames())
	}
}

// ChurnNames lists the churn shapes accepted by ChurnByName.
func ChurnNames() []string {
	return []string{"rewire", "cut", "crashjoin"}
}
