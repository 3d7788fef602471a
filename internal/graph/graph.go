// Package graph implements the network substrate of the paper: finite,
// undirected, connected communication graphs with per-process port
// numbering.
//
// The paper's model (Section 2) assumes each process p distinguishes its
// neighbors through local indices numbered 1..δ.p. The Graph type stores,
// for every process, an ordered list of neighbors; the position of a
// neighbor in that list (plus one) is its local index ("port"). Anonymous
// networks are modelled by forbidding protocols from looking at anything
// except degrees and ports; locally identified networks carry an explicit
// proper local coloring (see coloring.go).
package graph

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Graph is an undirected graph over processes 0..n-1 with a fixed port
// numbering. Graphs are immutable after construction — all construction
// lives on Builder — except for dynamic copies made with MutableCopy,
// whose topology may move between subgraphs of the base graph (see
// dynamic.go).
type Graph struct {
	name string
	adj  [][]int // adj[p][i] = neighbor of p behind port i+1
	back [][]int // back[p][i] = port index (0-based) of p at adj[p][i]
	m    int     // number of edges

	// dyn, when non-nil, marks a mutable copy (see dynamic.go): adj and
	// back become live-prefix views into a CSR arena and the topology
	// may move between subgraphs of the base graph.
	dyn *dynState
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	name  string
	edges [][2]int
	seen  map[[2]int]bool
}

// NewBuilder returns a Builder for a graph with n processes and no edges.
func NewBuilder(n int, name string) *Builder {
	return &Builder{n: n, name: name, seen: make(map[[2]int]bool)}
}

// AddEdge adds the undirected edge {u, v}. Duplicate edges and self-loops
// are rejected with an error.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	key := [2]int{min(u, v), max(u, v)}
	if b.seen[key] {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	b.seen[key] = true
	b.edges = append(b.edges, [2]int{u, v})
	return nil
}

// MustAddEdge is AddEdge but panics on error; intended for generators
// whose edge sets are correct by construction.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge {u, v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	return b.seen[[2]int{min(u, v), max(u, v)}]
}

// Build freezes the builder into an immutable Graph. Port order follows
// edge insertion order.
func (b *Builder) Build() *Graph {
	g := &Graph{name: b.name, adj: make([][]int, b.n), m: len(b.edges)}
	for _, e := range b.edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	g.rebuildBackPorts()
	return g
}

// rebuildBackPorts derives back from adj in O(n + m): the 2m arcs
// (p, i) -> q = adj[p][i] are counting-sorted by target, then for each q
// one index array reused across processes gives every neighbor's
// position in adj[q], which is the back port of the arcs entering q.
// adj must be symmetric and simple (every constructor guarantees it).
func (g *Graph) rebuildBackPorts() {
	n := len(g.adj)
	// first[q] is where q's entering arcs start; as many arcs enter q as
	// leave it, so it is also where q's row starts in the back arena.
	first := make([]int, n+1)
	for q, nb := range g.adj {
		first[q+1] = first[q] + len(nb)
	}
	total := first[n]
	arena := make([]int, total)
	g.back = make([][]int, n)
	for p := range g.adj {
		g.back[p] = arena[first[p]:first[p+1]:first[p+1]]
	}
	src, port := make([]int, total), make([]int, total)
	next := make([]int, n)
	copy(next, first)
	for p, nb := range g.adj {
		for i, q := range nb {
			src[next[q]], port[next[q]] = p, i
			next[q]++
		}
	}
	index := next // every entry is rewritten before it is read
	for q, nb := range g.adj {
		for j, p := range nb {
			index[p] = j
		}
		for c := first[q]; c < first[q+1]; c++ {
			g.back[src[c]][port[c]] = index[src[c]]
		}
	}
}

// N returns the number of processes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Name returns the human-readable name the graph was built with.
func (g *Graph) Name() string { return g.name }

// Degree returns δ.p, the number of neighbors of process p.
func (g *Graph) Degree(p int) int { return len(g.adj[p]) }

// MaxDegree returns Δ, the maximum degree of the graph (0 for n<=1).
func (g *Graph) MaxDegree() int {
	d := 0
	for p := range g.adj {
		if len(g.adj[p]) > d {
			d = len(g.adj[p])
		}
	}
	return d
}

// MinDegree returns the minimum degree of the graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := len(g.adj[0])
	for p := range g.adj {
		if len(g.adj[p]) < d {
			d = len(g.adj[p])
		}
	}
	return d
}

// Neighbor returns the process behind port i (1-based, 1 <= i <= δ.p) of p.
func (g *Graph) Neighbor(p, port int) int {
	return g.adj[p][port-1]
}

// BackPort returns the port (1-based) under which p appears at its
// neighbor behind port i of p. That is, if q = Neighbor(p, i) then
// Neighbor(q, BackPort(p, i)) == p.
func (g *Graph) BackPort(p, port int) int {
	return g.back[p][port-1] + 1
}

// Neighbors returns a copy of p's neighbor list in port order.
func (g *Graph) Neighbors(p int) []int {
	out := make([]int, len(g.adj[p]))
	copy(out, g.adj[p])
	return out
}

// PortOf returns the port (1-based) of neighbor q at p, or 0 if q is not
// a neighbor of p.
func (g *Graph) PortOf(p, q int) int {
	for i, nb := range g.adj[p] {
		if nb == q {
			return i + 1
		}
	}
	return 0
}

// HasEdge reports whether p and q are neighbors.
func (g *Graph) HasEdge(p, q int) bool { return g.PortOf(p, q) != 0 }

// Edges returns all edges as (u, v) pairs with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for p, nb := range g.adj {
		for _, q := range nb {
			if p < q {
				out = append(out, [2]int{p, q})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ShufflePorts returns a copy of g whose per-process port numbering has
// been permuted uniformly at random. The underlying edge set is
// unchanged. Port shuffling models the adversarial local labelling of
// anonymous networks.
func (g *Graph) ShufflePorts(r *rng.Rand) *Graph {
	h := &Graph{name: g.name, adj: make([][]int, g.N()), m: g.m}
	for p, nb := range g.adj {
		cp := make([]int, len(nb))
		copy(cp, nb)
		r.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		h.adj[p] = cp
	}
	h.rebuildBackPorts()
	return h
}

// Relabel returns a copy of g in which process p becomes perm[p]. perm
// must be a permutation of 0..n-1. Port order is preserved.
func (g *Graph) Relabel(perm []int) (*Graph, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("graph: permutation length %d != n %d", len(perm), g.N())
	}
	seen := make([]bool, g.N())
	for _, v := range perm {
		if v < 0 || v >= g.N() || seen[v] {
			return nil, fmt.Errorf("graph: invalid permutation %v", perm)
		}
		seen[v] = true
	}
	h := &Graph{name: g.name, adj: make([][]int, g.N()), m: g.m}
	for p, nb := range g.adj {
		row := make([]int, len(nb))
		for i, q := range nb {
			row[i] = perm[q]
		}
		h.adj[perm[p]] = row
	}
	h.rebuildBackPorts()
	return h, nil
}

// Equal reports whether g and h have identical vertex sets, edge sets and
// port numberings.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.m != h.m {
		return false
	}
	for p := range g.adj {
		if len(g.adj[p]) != len(h.adj[p]) {
			return false
		}
		for i := range g.adj[p] {
			if g.adj[p][i] != h.adj[p][i] {
				return false
			}
		}
	}
	return true
}

// String returns a short description such as "path-8 (n=8 m=7 Δ=2)".
func (g *Graph) String() string {
	return fmt.Sprintf("%s (n=%d m=%d Δ=%d)", g.name, g.N(), g.m, g.MaxDegree())
}
