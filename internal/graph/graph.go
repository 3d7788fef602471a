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
	"math"
	"slices"
	"sort"
)

// Graph is an undirected graph over processes 0..n-1 with a fixed port
// numbering. Graphs are immutable after construction — all construction
// lives on Builder and the CSR-direct generators (csr.go) — except for
// dynamic copies made with MutableCopy, whose topology may move between
// subgraphs of the base graph (see dynamic.go).
//
// Storage is one compressed-sparse-row layout for every graph, static
// or dynamic, whichever constructor built it: process p owns the range
// [off[p], off[p+1]) of the two arc arenas nbr and back, and its live
// row — the neighbors behind ports 1..δ.p — is [off[p], end[p]). Ids
// and offsets are 32 bits wide (fits rejects anything larger where a
// graph is frozen), back ports 16 bits (see backIndex), and there is no
// per-process slice header: a graph costs 4(n+1) + 12m bytes, 28 per
// process at Δ = 4. On a static graph end is off[1:] itself; a dynamic
// copy owns a separate end that moves as edges leave and return, with
// the removed arcs parked in [end[p], off[p+1]).
type Graph struct {
	name string
	off  []int32  // off[p] = start of p's row in nbr and back; len n+1
	end  []int32  // end[p] = end of p's live row; len n
	nbr  []int32  // nbr[off[p]+i] = neighbor of p behind port i+1
	back []uint16 // back[off[p]+i] = port index (0-based) of p at that neighbor, saturated at backLimit
	m    int      // number of edges

	// dyn, when non-nil, marks a mutable copy (see dynamic.go).
	dyn *dynState
}

// fits rejects a graph of n processes and arcs = 2m directed arcs that
// 32-bit ids and row offsets cannot address. Every constructor that
// freezes a graph calls it before it narrows anything.
func fits(n, arcs int) error {
	if n > math.MaxInt32 || arcs > math.MaxInt32 {
		return fmt.Errorf("graph: n=%d processes and 2m=%d arcs: 32-bit ids and row offsets hold at most 2^31-1 = %d of each",
			n, arcs, math.MaxInt32)
	}
	return nil
}

// Row returns p's live neighbor row in port order as a view into the
// graph's storage: Row(p)[i] is Neighbor(p, i+1). Its capacity ends with
// it, so no reslice reaches the next row or a dead suffix. The caller
// must not write to it, and on a dynamic graph it is valid until the
// next topology mutation. A guard evaluation holds it for the process it
// is aimed at.
func (g *Graph) Row(p int) []int32 { return g.nbr[g.off[p]:g.end[p]:g.end[p]] }

// RowStart returns where p's row begins in the graph's arc arena: p owns
// the indices [RowStart(p), RowStart(p+1)), its live row the first δ.p
// of them, and RowStart(N()) is the arena's length. A table of one entry
// per port of every process, sized RowStart(N()) and cut at RowStart,
// costs no slice header per process and outlives every topology event.
func (g *Graph) RowStart(p int) int { return int(g.off[p]) }

// Arc returns the base arc of p's port (1..δ.p): the arena index
// RowStart(p) + i where the neighbor behind port sits at index i of
// BaseRow(p). A base arc names the pair (p, neighbor) for the life of
// the graph: on a static graph it is the port's own slot, and on a
// dynamic one, where removals and restorations move neighbors between
// ports, it stays with the neighbor (see dynState.arc). Arcs of distinct
// processes are distinct, so a set of (process, neighbor) pairs is a
// set of arcs. A port outside p's live row is not checked here; the
// caller must have read the neighbor behind it. O(1).
func (g *Graph) Arc(p, port int) int {
	i := int(g.off[p]) + port - 1
	if g.dyn != nil {
		return int(g.dyn.arc[i])
	}
	return i
}

// ArcHead returns the neighbor an arc points to: ArcHead(Arc(p, port))
// is Neighbor(p, port).
func (g *Graph) ArcHead(a int) int {
	if g.dyn != nil {
		return int(g.dyn.baseNbr[a])
	}
	return int(g.nbr[a])
}

// BaseRow returns p's base neighbor row, the one its arcs are numbered
// by: Row(p) on a static graph, and on a dynamic one p's row as
// MutableCopy found it, whatever has been removed since. The caller must
// not write to it.
func (g *Graph) BaseRow(p int) []int32 {
	if g.dyn != nil {
		return g.dyn.baseNbr[g.off[p]:g.off[p+1]:g.off[p+1]]
	}
	return g.Row(p)
}

// backLimit is the value a back entry saturates at. An entry below it
// is the back port index itself; an entry equal to it says the index is
// backLimit or more, and backIndex finds it by scanning the neighbor's
// row from there. Only a process of degree above backLimit can sit at
// such an index, so every graph with Δ ≤ 0xFFFF stores exact entries.
// In-package tests lower it to put the scan under every generator.
var backLimit uint16 = math.MaxUint16

// narrowBack stores the 0-based back port index i as its back entry.
func narrowBack[I int | int32](i I) uint16 {
	if i >= I(backLimit) {
		return backLimit
	}
	return uint16(i)
}

// backRow returns the back entries of p's live row.
func (g *Graph) backRow(p int) []uint16 { return g.back[g.off[p]:g.end[p]:g.end[p]] }

// backIndex returns the 0-based position of p in the live row of its
// neighbor behind p's 0-based port i (a port outside p's live row
// panics on its bound): the back entry itself, or, when it is
// saturated, the position of p at or after backLimit in the neighbor's
// row. It returns -1 only on a graph whose back entries are
// inconsistent (CheckInvariants reports it).
func (g *Graph) backIndex(p, i int) int {
	if b := g.backRow(p)[i]; b < backLimit {
		return int(b)
	}
	row := g.Row(int(g.Row(p)[i]))
	if j := slices.Index(row[min(int(backLimit), len(row)):], int32(p)); j >= 0 {
		return int(backLimit) + j
	}
	return -1
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
// edge insertion order. A graph beyond the layout's 32-bit limit (see
// fits) panics: Build has no error to return it in.
func (b *Builder) Build() *Graph {
	g, err := csrFromEdges(b.name, b.n, b.edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of processes.
func (g *Graph) N() int { return len(g.end) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Name returns the human-readable name the graph was built with.
func (g *Graph) Name() string { return g.name }

// Degree returns δ.p, the number of neighbors of process p.
func (g *Graph) Degree(p int) int { return int(g.end[p] - g.off[p]) }

// MaxDegree returns Δ, the maximum degree of the graph (0 for n<=1).
func (g *Graph) MaxDegree() int {
	d := 0
	for p := range g.end {
		d = max(d, g.Degree(p))
	}
	return d
}

// MinDegree returns the minimum degree of the graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := g.Degree(0)
	for p := range g.end {
		d = min(d, g.Degree(p))
	}
	return d
}

// Neighbor returns the process behind port i (1-based, 1 <= i <= δ.p) of
// p. Any other port panics on the row's bound, on a dynamic graph too:
// a removed neighbor is not behind any port.
func (g *Graph) Neighbor(p, port int) int {
	return int(g.Row(p)[port-1])
}

// BackPort returns the port (1-based) under which p appears at its
// neighbor behind port i of p. That is, if q = Neighbor(p, i) then
// Neighbor(q, BackPort(p, i)) == p.
func (g *Graph) BackPort(p, port int) int {
	return g.backIndex(p, port-1) + 1
}

// Neighbors returns a copy of p's neighbor list in port order.
func (g *Graph) Neighbors(p int) []int {
	row := g.Row(p)
	out := make([]int, len(row))
	for i, q := range row {
		out[i] = int(q)
	}
	return out
}

// PortOf returns the port (1-based) of neighbor q at p, or 0 if q is not
// a neighbor of p.
func (g *Graph) PortOf(p, q int) int {
	for i, nb := range g.Row(p) {
		if int(nb) == q {
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
	for p := range g.end {
		for _, q := range g.Row(p) {
			if p < int(q) {
				out = append(out, [2]int{p, int(q)})
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

// liveRows returns a fresh copy of g's live rows packed end to end and
// their offsets (on a static graph, copies of nbr and off as they are).
func (g *Graph) liveRows() (off, nbr []int32) {
	off = make([]int32, g.N()+1)
	for p := range g.end {
		off[p+1] = off[p] + g.end[p] - g.off[p]
	}
	nbr = make([]int32, off[g.N()])
	for p := range g.end {
		copy(nbr[off[p]:], g.Row(p))
	}
	return off, nbr
}

// Equal reports whether g and h have identical vertex sets, edge sets and
// port numberings.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.m != h.m {
		return false
	}
	for p := range g.end {
		if !slices.Equal(g.Row(p), h.Row(p)) {
			return false
		}
	}
	return true
}

// String returns a short description such as "path-8 (n=8 m=7 Δ=2)".
func (g *Graph) String() string {
	return fmt.Sprintf("%s (n=%d m=%d Δ=%d)", g.name, g.N(), g.m, g.MaxDegree())
}
