package graph

// CSR-direct construction: the large-graph generators (Torus,
// RandomRegular, RandomConnectedGNP) bypass Builder entirely. Builder
// keeps a map of seen edges and an edge list beside the rows it builds —
// hundreds of bytes of overhead per edge, which is what makes
// million-process graphs exhaust memory long before the simulator runs.
// The constructors here lay every neighbor list and back-port list out
// in two flat arenas (classic CSR), computing back ports directly from
// per-vertex fill cursors, so a graph costs O(n + m) words plus the two
// [][]int row headers and nothing else.
//
// The row-filling order is exactly Builder.Build's: scanning the edge
// list in insertion order and appending each endpoint to the other's
// row. Port numberings — and therefore every protocol computation on the
// graph — are identical to the Builder path (TestCSRMatchesBuilder pins
// this per generator).

// csrFromEdges builds a Graph from a finished edge list. Edges must be
// simple (no self-loops, no duplicates) and in range — the callers are
// generators whose edge streams are correct by construction. Port order
// follows edge-list order, as with Builder.
func csrFromEdges(name string, n int, edges [][2]int32) *Graph {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	adjArena := make([]int, 2*len(edges))
	backArena := make([]int, 2*len(edges))
	adj := make([][]int, n)
	back := make([][]int, n)
	off := 0
	for v := 0; v < n; v++ {
		end := off + deg[v]
		adj[v] = adjArena[off:end:end]
		back[v] = backArena[off:end:end]
		off = end
	}
	// Fill rows with per-vertex cursors; when edge {u,v} lands at
	// positions iu (in u's row) and iv (in v's row), each side's back
	// port is the other's position — no index maps needed.
	cur := deg // reuse as cursors
	for i := range cur {
		cur[i] = 0
	}
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		iu, iv := cur[u], cur[v]
		adj[u][iu] = v
		adj[v][iv] = u
		back[u][iu] = iv
		back[v][iv] = iu
		cur[u] = iu + 1
		cur[v] = iv + 1
	}
	return &Graph{name: name, adj: adj, back: back, m: len(edges)}
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
