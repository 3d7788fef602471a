package graph

// CSR-direct construction: the large-graph generators (Torus,
// RandomRegular, RandomConnectedGNP) bypass Builder entirely. Builder
// keeps a map of seen edges beside its edge list — hundreds of bytes of
// overhead per edge, which is what makes million-process graphs exhaust
// memory long before the simulator runs. The torus hands csrFromStream a
// function that emits its edges, so no edge list exists at all; G(n,p)
// and Builder.Build hand csrFromEdges the edge lists they keep anyway
// (G(n,p) because its edges are random draws that a second pass would
// have to replay). RandomRegular fills its own fixed-degree arenas.
// Every other graph is laid out here, in the layout graph.go describes.
//
// Rows fill by scanning the edge stream in emission order and appending
// each endpoint to the other's row, so port numberings — and therefore
// every protocol computation on the graph — depend on the edge order
// alone, not on which constructor carried it (TestCSRMatchesBuilder pins
// this per generator).

// csrFromEdges builds a Graph from a finished edge list: csrFromStream
// over the list.
func csrFromEdges[V int | int32](name string, n int, edges [][2]V) (*Graph, error) {
	return csrFromStream(name, n, func(edge func(u, v int32)) {
		for _, e := range edges {
			edge(int32(e[0]), int32(e[1]))
		}
	})
}

// csrFromStream builds a Graph from an edge stream: stream calls edge
// once per edge, and must emit the same edges in the same order each
// time it is called. It is called twice, once to count degrees and once
// to fill rows and back ports, so the only scratch beside the layout is
// one 32-bit row cursor per process. Edges must be simple (no
// self-loops, no duplicates) and in range: Builder.AddEdge checks, the
// generators' edge streams are correct by construction. The one thing
// checked here is that n and 2m fit the layout's 32 bits (n before any
// id is narrowed, 2m before any offset is summed).
func csrFromStream(name string, n int, stream func(edge func(u, v int32))) (*Graph, error) {
	if err := fits(n, 0); err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	arcs := 0
	stream(func(u, v int32) {
		off[u+1]++
		off[v+1]++
		arcs += 2
	})
	if err := fits(n, arcs); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	g := &Graph{name: name, off: off, end: off[1:], m: arcs / 2,
		nbr: make([]int32, arcs), back: make([]uint16, arcs)}
	// Fill rows with per-vertex cursors; when edge {u,v} lands at
	// positions iu (in u's row) and iv (in v's row), each side's back
	// port is the other's position — no index maps needed.
	cur := make([]int32, n)
	stream(func(u, v int32) {
		iu, iv := cur[u], cur[v]
		g.nbr[off[u]+iu], g.nbr[off[v]+iv] = v, u
		g.back[off[u]+iu], g.back[off[v]+iv] = narrowBack(iv), narrowBack(iu)
		cur[u], cur[v] = iu+1, iv+1
	})
	return g, nil
}

// packEdge encodes the unordered pair {u,v} as a single ordered key for
// sorted-slice membership tests.
func packEdge(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// searchInt64 returns whether key occurs in the sorted slice keys.
func searchInt64(keys []int64, key int64) bool {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(keys) && keys[lo] == key
}
