package graph

import "fmt"

// Orientation assigns a direction to every edge of a graph, as in the
// paper's Definition 11 (dag-orientation): each process p has a successor
// set Succ.p ⊆ Γ.p, and the directed graph over the Succ relation must be
// acyclic for the orientation to be a dag-orientation.
type Orientation struct {
	g    *Graph
	succ [][]int // succ[p] = successors of p (subset of neighbors)
}

// NewOrientation builds an orientation from explicit successor sets.
// Every (p, q) with q in succ[p] must be an edge, and each edge must be
// oriented in exactly one direction.
func NewOrientation(g *Graph, succ [][]int) (*Orientation, error) {
	if len(succ) != g.N() {
		return nil, fmt.Errorf("graph: orientation has %d rows, want %d", len(succ), g.N())
	}
	directed := make(map[[2]int]bool)
	for p, row := range succ {
		for _, q := range row {
			if !g.HasEdge(p, q) {
				return nil, fmt.Errorf("graph: orientation uses non-edge (%d,%d)", p, q)
			}
			key := [2]int{min(p, q), max(p, q)}
			if directed[key] {
				return nil, fmt.Errorf("graph: edge {%d,%d} oriented twice", p, q)
			}
			directed[key] = true
		}
	}
	if len(directed) != g.M() {
		return nil, fmt.Errorf("graph: orientation covers %d/%d edges", len(directed), g.M())
	}
	cp := make([][]int, len(succ))
	for i, row := range succ {
		cp[i] = append([]int(nil), row...)
	}
	return &Orientation{g: g, succ: cp}, nil
}

// OrientByColor orients every edge from the lower color to the higher
// color, the construction of Theorem 4. colors[p] must differ from
// colors[q] for every edge {p,q}; otherwise an error is returned.
func OrientByColor(g *Graph, colors []int) (*Orientation, error) {
	if len(colors) != g.N() {
		return nil, fmt.Errorf("graph: %d colors for %d processes", len(colors), g.N())
	}
	succ := make([][]int, g.N())
	for p := 0; p < g.N(); p++ {
		for _, q := range g.Row(p) {
			if colors[p] == colors[q] {
				return nil, fmt.Errorf("graph: neighbors %d and %d share color %d", p, q, colors[p])
			}
			if colors[p] < colors[q] {
				succ[p] = append(succ[p], int(q))
			}
		}
	}
	return NewOrientation(g, succ)
}

// Succ returns a copy of the successor set of p.
func (o *Orientation) Succ(p int) []int {
	return append([]int(nil), o.succ[p]...)
}

// Pred returns the predecessor set of p (neighbors q with p in Succ.q).
func (o *Orientation) Pred(p int) []int {
	var out []int
	for _, q := range o.g.Row(p) {
		for _, s := range o.succ[q] {
			if s == p {
				out = append(out, int(q))
				break
			}
		}
	}
	return out
}

// IsSource reports whether p has no predecessors.
func (o *Orientation) IsSource(p int) bool { return len(o.Pred(p)) == 0 }

// IsSink reports whether p has no successors.
func (o *Orientation) IsSink(p int) bool { return len(o.succ[p]) == 0 }

// IsAcyclic reports whether the oriented graph is a dag (Kahn's
// algorithm).
func (o *Orientation) IsAcyclic() bool {
	n := o.g.N()
	indeg := make([]int, n)
	for _, row := range o.succ {
		for _, q := range row {
			indeg[q]++
		}
	}
	var queue []int
	for p := 0; p < n; p++ {
		if indeg[p] == 0 {
			queue = append(queue, p)
		}
	}
	removed := 0
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, q := range o.succ[p] {
			indeg[q]--
			if indeg[q] == 0 {
				queue = append(queue, q)
			}
		}
	}
	return removed == n
}

// TopologicalOrder returns a topological order of the processes, or an
// error if the orientation has a cycle.
func (o *Orientation) TopologicalOrder() ([]int, error) {
	n := o.g.N()
	indeg := make([]int, n)
	for _, row := range o.succ {
		for _, q := range row {
			indeg[q]++
		}
	}
	var queue, order []int
	for p := 0; p < n; p++ {
		if indeg[p] == 0 {
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		order = append(order, p)
		for _, q := range o.succ[p] {
			indeg[q]--
			if indeg[q] == 0 {
				queue = append(queue, q)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: orientation is cyclic")
	}
	return order, nil
}
