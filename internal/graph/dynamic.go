package graph

import (
	"fmt"
	"slices"
)

// dynState is the mutable-topology extension of Graph. A dynamic graph
// is born from an immutable base graph via MutableCopy and only ever
// moves between subgraphs of that base: live edges are a subset of the
// base edge set, degrees never exceed base degrees, and the base port
// order is restored exactly by ResetTopology.
//
// Storage is Graph's own layout with a live end per process. Process p
// owns the fixed arena range [off[p], off[p+1]); the entries up to
// end[p] are its live neighbor row and the remaining ones hold the
// currently-removed base edges in arbitrary order. Removal swaps the
// victim entry to the end of the live prefix and lowers end[p];
// restoration swaps it back in from the dead suffix and raises it. Both
// operations are O(degree) scans with O(1) fixups, and neither — nor
// crash/revive, which are edge-removal/restoration loops — allocates.
type dynState struct {
	alive    []bool  // false while p is crashed (its live row is empty then)
	baseNbr  []int32 // pristine base arenas, for ResetTopology/ReviveNode
	baseBack []uint16
	baseM    int

	// arc[i] is the base arc of the entry at arena slot i (see
	// Graph.Arc): the slot it held in the base arena. It moves with the
	// entry, so a neighbor keeps its arc whatever port it is behind.
	arc []int32
}

// MutableCopy returns a dynamic copy of g: same vertices, edges and
// port numbering, but supporting RemoveEdge/RestoreEdge/CrashNode/
// ReviveNode/ResetTopology. The receiver is not modified and shares no
// storage with the copy.
func (g *Graph) MutableCopy() *Graph {
	n := g.N()
	off, nbr := g.liveRows()
	back := make([]uint16, len(nbr))
	for p := 0; p < n; p++ {
		copy(back[off[p]:], g.backRow(p))
	}
	d := &dynState{
		alive:    make([]bool, n),
		baseNbr:  slices.Clone(nbr),
		baseBack: slices.Clone(back),
		baseM:    g.m,
		arc:      make([]int32, len(nbr)),
	}
	for p := range d.alive {
		d.alive[p] = true
	}
	d.resetArcs()
	return &Graph{name: g.name, off: off, end: slices.Clone(off[1:]), nbr: nbr, back: back, m: g.m, dyn: d}
}

// resetArcs puts every arena slot's base arc back to the slot itself.
func (d *dynState) resetArcs() {
	for i := range d.arc {
		d.arc[i] = int32(i)
	}
}

// Dynamic reports whether g was produced by MutableCopy and supports
// topology mutation.
func (g *Graph) Dynamic() bool { return g.dyn != nil }

// Alive reports whether process p is currently joined. Static graphs
// report every process alive.
func (g *Graph) Alive(p int) bool {
	if g.dyn == nil {
		return true
	}
	return g.dyn.alive[p]
}

// liveIndex returns the 0-based live-row position of q at p, or -1.
func (g *Graph) liveIndex(p, q int) int {
	return slices.Index(g.Row(p), int32(q))
}

// deadIndex returns the 0-based row position (>= Degree(p)) of q in p's
// dead suffix, or -1 if the base edge {p,q} is currently live or does
// not exist.
func (g *Graph) deadIndex(p, q int) int {
	if j := slices.Index(g.nbr[g.end[p]:g.off[p+1]], int32(q)); j >= 0 {
		return g.Degree(p) + j
	}
	return -1
}

// removeHalf drops p's live-row entry i by swapping it with the last
// live entry and shrinking the row. The moved neighbor's back pointer
// into p is patched; the dropped entry lands in the dead suffix.
func (g *Graph) removeHalf(p, i int) {
	row, brow := g.Row(p), g.backRow(p)
	last := len(row) - 1
	if i != last {
		row[i], row[last] = row[last], row[i]
		brow[i], brow[last] = brow[last], brow[i]
		arc := g.dyn.arc[g.off[p]:g.end[p]]
		arc[i], arc[last] = arc[last], arc[i]
		g.backRow(int(row[i]))[g.backIndex(p, i)] = narrowBack(i)
	}
	g.end[p]--
}

// restoreHalf swaps p's dead-suffix entry at row position j into the
// first dead position and grows the row over it. The entry's back value
// is stale until the caller rewrites it.
func (g *Graph) restoreHalf(p, j int) {
	at, to := g.off[p]+int32(j), g.end[p]
	g.nbr[at], g.nbr[to] = g.nbr[to], g.nbr[at]
	g.back[at], g.back[to] = g.back[to], g.back[at]
	g.dyn.arc[at], g.dyn.arc[to] = g.dyn.arc[to], g.dyn.arc[at]
	g.end[p]++
}

// RemoveEdge removes the live edge {u, v} from a dynamic graph,
// reporting whether it was present. Port numbers of other neighbors of
// u and v may change (the last live port moves into the freed slot);
// back pointers stay consistent.
func (g *Graph) RemoveEdge(u, v int) bool {
	if g.dyn == nil {
		panic("graph: RemoveEdge on a static graph (use MutableCopy)")
	}
	iu := g.liveIndex(u, v)
	if iu < 0 {
		return false
	}
	iv := g.backIndex(u, iu) // position of u in v's row, before any swap
	g.removeHalf(u, iu)
	g.removeHalf(v, iv)
	g.m--
	return true
}

// RestoreEdge re-adds a previously removed base edge {u, v}, reporting
// whether it was restored. It fails (returns false) when the edge is
// already live, is not a base edge, or either endpoint is crashed. The
// edge returns at the highest port of each endpoint.
func (g *Graph) RestoreEdge(u, v int) bool {
	d := g.dyn
	if d == nil {
		panic("graph: RestoreEdge on a static graph (use MutableCopy)")
	}
	if !d.alive[u] || !d.alive[v] || g.liveIndex(u, v) >= 0 {
		return false
	}
	ju := g.deadIndex(u, v)
	if ju < 0 {
		return false
	}
	jv := g.deadIndex(v, u)
	if jv < 0 {
		panic(fmt.Sprintf("graph: asymmetric dead entry for edge {%d,%d}", u, v))
	}
	g.restoreHalf(u, ju)
	g.restoreHalf(v, jv)
	// Both halves are now the last live entry of their row.
	g.back[g.end[u]-1] = narrowBack(g.Degree(v) - 1)
	g.back[g.end[v]-1] = narrowBack(g.Degree(u) - 1)
	g.m++
	return true
}

// CrashNode removes process p from the live topology: every live edge
// at p is removed (p keeps its identity and remains schedulable at
// degree 0, per the round model where crashed processes still count).
// Reports whether p was alive.
func (g *Graph) CrashNode(p int) bool {
	d := g.dyn
	if d == nil {
		panic("graph: CrashNode on a static graph (use MutableCopy)")
	}
	if !d.alive[p] {
		return false
	}
	for g.end[p] > g.off[p] {
		g.RemoveEdge(p, int(g.nbr[g.end[p]-1]))
	}
	d.alive[p] = false
	return true
}

// ReviveNode rejoins a crashed process p: every base edge of p whose
// other endpoint is alive is restored, in base port order. Reports
// whether p was crashed.
func (g *Graph) ReviveNode(p int) bool {
	d := g.dyn
	if d == nil {
		panic("graph: ReviveNode on a static graph (use MutableCopy)")
	}
	if d.alive[p] {
		return false
	}
	d.alive[p] = true
	for _, q := range d.baseNbr[g.off[p]:g.off[p+1]] {
		if d.alive[q] {
			g.RestoreEdge(p, int(q))
		}
	}
	return true
}

// ResetTopology restores the pristine base graph: all edges live in
// base port order, every process alive. O(arena) copies, no
// allocation.
func (g *Graph) ResetTopology() {
	d := g.dyn
	if d == nil {
		panic("graph: ResetTopology on a static graph (use MutableCopy)")
	}
	copy(g.nbr, d.baseNbr)
	copy(g.back, d.baseBack)
	d.resetArcs()
	copy(g.end, g.off[1:])
	for p := range d.alive {
		d.alive[p] = true
	}
	g.m = d.baseM
}

// CheckInvariants verifies the dynamic representation: edge count,
// live-row symmetry (back pointers round-trip), crashed processes at
// degree zero, conservation of the base arena (live prefix plus dead
// suffix of every process is a permutation of its base row), and base
// arcs that follow their neighbors (the arc of every slot indexes the
// same neighbor in the base row). Intended for tests; returns nil on a
// static graph.
func (g *Graph) CheckInvariants() error {
	d := g.dyn
	if d == nil {
		return nil
	}
	degSum := 0
	for p := range g.end {
		deg := g.Degree(p)
		degSum += deg
		if !d.alive[p] && deg != 0 {
			return fmt.Errorf("crashed process %d has degree %d", p, deg)
		}
		if g.end[p] < g.off[p] || g.end[p] > g.off[p+1] {
			return fmt.Errorf("process %d: live end %d outside its arena range [%d,%d]", p, g.end[p], g.off[p], g.off[p+1])
		}
		for i, q := range g.Row(p) {
			bi := g.backIndex(p, i)
			if bi < 0 || bi >= g.Degree(int(q)) {
				return fmt.Errorf("process %d port %d: back %d outside live row of %d (deg %d)", p, i+1, bi, q, g.Degree(int(q)))
			}
			if int(g.Row(int(q))[bi]) != p || g.backIndex(int(q), bi) != i {
				return fmt.Errorf("process %d port %d: back pointer to %d does not round-trip", p, i+1, q)
			}
		}
		// Arena conservation: p's row must remain a permutation of its
		// base row, and each slot's arc must name its neighbor there.
		have := map[int32]int{}
		for j := g.off[p]; j < g.off[p+1]; j++ {
			if a := d.arc[j]; a < g.off[p] || a >= g.off[p+1] || d.baseNbr[a] != g.nbr[j] {
				return fmt.Errorf("process %d slot %d: arc %d does not name neighbor %d in its base row", p, j-g.off[p], a, g.nbr[j])
			}
			have[g.nbr[j]]++
			have[d.baseNbr[j]]--
		}
		for q, c := range have {
			if c != 0 {
				return fmt.Errorf("process %d: arena row lost/gained neighbor %d", p, q)
			}
		}
	}
	if degSum != 2*g.m {
		return fmt.Errorf("degree sum %d != 2m = %d", degSum, 2*g.m)
	}
	return nil
}
