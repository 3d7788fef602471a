package graph

// CSR-direct construction: the large-graph generators (Torus,
// RandomRegular, RandomConnectedGNP) bypass Builder entirely. Builder
// keeps a map of seen edges beside its edge list — hundreds of bytes of
// overhead per edge, which is what makes million-process graphs exhaust
// memory long before the simulator runs. They hand csrFromEdges a bare
// edge list instead, and Builder.Build hands it the builder's: every
// graph is laid out here, in the layout graph.go describes.
//
// Rows fill by scanning the edge list in insertion order and appending
// each endpoint to the other's row, so port numberings — and therefore
// every protocol computation on the graph — depend on the edge order
// alone, not on which constructor carried it (TestCSRMatchesBuilder pins
// this per generator).

// csrFromEdges builds a Graph from a finished edge list. Edges must be
// simple (no self-loops, no duplicates) and in range: Builder.AddEdge
// checks, the generators' edge streams are correct by construction. The
// one thing checked here is that n and 2m fit the layout's 32 bits (an
// int32 edge list that was narrowed from a larger n is rejected on n
// before any id is read).
func csrFromEdges[V int | int32](name string, n int, edges [][2]V) (*Graph, error) {
	if err := fits(n, 2*len(edges)); err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	g := &Graph{name: name, off: off, end: off[1:], m: len(edges),
		nbr: make([]int32, 2*len(edges)), back: make([]uint16, 2*len(edges))}
	// Fill rows with per-vertex cursors; when edge {u,v} lands at
	// positions iu (in u's row) and iv (in v's row), each side's back
	// port is the other's position — no index maps needed.
	cur := make([]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		iu, iv := cur[u], cur[v]
		g.nbr[off[u]+iu], g.nbr[off[v]+iv] = int32(v), int32(u)
		g.back[off[u]+iu], g.back[off[v]+iv] = narrowBack(iv), narrowBack(iu)
		cur[u], cur[v] = iu+1, iv+1
	}
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
