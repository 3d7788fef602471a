package graph

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
)

// BFS returns the distance (in hops) from src to every process, with -1
// for unreachable processes.
func (g *Graph) BFS(src int) []int {
	s := g.newBFS()
	s.from(src)
	out := make([]int, len(s.dist))
	for p, d := range s.dist {
		out[p] = int(d)
	}
	return out
}

// bfs is the scratch of a breadth-first search, reusable across sources:
// hop distances (-1 for unreachable) and the visit queue, both as wide as
// the graph's ids.
type bfs struct {
	g     *Graph
	dist  []int32
	queue []int32
}

func (g *Graph) newBFS() *bfs {
	return &bfs{g: g, dist: make([]int32, g.N()), queue: make([]int32, 0, g.N())}
}

// from searches from src and returns how many processes it reached and
// the distance of the farthest.
func (s *bfs) from(src int) (reached int, far int32) {
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[src] = 0
	s.queue = append(s.queue[:0], int32(src))
	// Every process enters the queue at most once, so it never regrows.
	for head := 0; head < len(s.queue); head++ {
		p := s.queue[head]
		far = s.dist[p] // distances are non-decreasing along the queue
		for _, q := range s.g.Row(int(p)) {
			if s.dist[q] == -1 {
				s.dist[q] = far + 1
				s.queue = append(s.queue, q)
			}
		}
	}
	return len(s.queue), far
}

// IsConnected reports whether the graph is connected (the paper's model
// assumes connected topologies). The empty graph is connected. Every
// system is checked once at construction, so the search keeps a visited
// bit per process and the frontier of one hop distance at a time, not
// BFS's n distances and n-entry queue: on a torus or a grid the frontier
// is a ring of O(√n) processes.
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := bitset.New(n)
	seen.Add(0)
	reached := 1
	frontier, next := []int32{0}, []int32(nil)
	for len(frontier) > 0 {
		next = next[:0]
		for _, p := range frontier {
			for _, q := range g.Row(int(p)) {
				if seen.Add(int(q)) {
					next = append(next, q)
				}
			}
		}
		reached += len(next)
		frontier, next = next, frontier
	}
	return reached == n
}

// Diameter returns D, the maximum over all pairs of the hop distance.
// It returns an error for disconnected graphs.
func (g *Graph) Diameter() (int, error) {
	d := int32(0)
	s := g.newBFS()
	for p := 0; p < g.N(); p++ {
		reached, far := s.from(p)
		if reached < g.N() {
			return 0, fmt.Errorf("graph: diameter of disconnected graph")
		}
		d = max(d, far)
	}
	return int(d), nil
}

// IsTree reports whether the graph is connected and has n-1 edges.
func (g *Graph) IsTree() bool {
	return g.N() > 0 && g.m == g.N()-1 && g.IsConnected()
}

// IsBipartite reports whether the graph is 2-colorable.
func (g *Graph) IsBipartite() bool {
	color := make([]int, g.N())
	for i := range color {
		color[i] = -1
	}
	for s := 0; s < g.N(); s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, q := range g.Row(p) {
				if color[q] == -1 {
					color[q] = 1 - color[p]
					queue = append(queue, int(q))
				} else if color[q] == color[p] {
					return false
				}
			}
		}
	}
	return true
}

// LongestPathExact returns Lmax, the number of edges of the longest
// elementary (simple) path, computed by exhaustive DFS. The problem is
// NP-hard; callers must keep n small (the harness uses it for n <= 24).
// maxNodes guards against accidental blowup: if g.N() > maxNodes an
// error is returned.
func (g *Graph) LongestPathExact(maxNodes int) (int, error) {
	if g.N() > maxNodes {
		return 0, fmt.Errorf("graph: LongestPathExact: n=%d exceeds limit %d", g.N(), maxNodes)
	}
	if g.IsTree() {
		return g.treeLongestPath(), nil
	}
	if g.N() <= 64 {
		return g.longestPathMasked(), nil
	}
	best := 0
	visited := make([]bool, g.N())
	var dfs func(p, length int)
	dfs = func(p, length int) {
		if length > best {
			best = length
		}
		visited[p] = true
		for _, q := range g.Row(p) {
			if !visited[q] {
				dfs(int(q), length+1)
			}
		}
		visited[p] = false
	}
	for s := 0; s < g.N(); s++ {
		dfs(s, 0)
	}
	return best, nil
}

// longestPathMasked is the exhaustive longest-path search on bitmask
// adjacency (n <= 64) with a reachability bound: a branch whose current
// length plus the number of still-reachable unvisited vertices cannot
// beat the incumbent is cut. The bound only ever discards paths proven
// no longer than the best, so the result equals the unpruned search's.
func (g *Graph) longestPathMasked() int {
	n := g.N()
	adj := make([]uint64, n)
	for p := range adj {
		for _, q := range g.Row(p) {
			adj[p] |= 1 << uint(q)
		}
	}
	best := 0
	var dfs func(p int, visited uint64, length int)
	dfs = func(p int, visited uint64, length int) {
		if length > best {
			best = length
		}
		// Flood the unvisited region reachable from p word-parallel; at
		// most popcount-1 further edges can be appended to this path.
		free := ^visited
		r := uint64(1) << uint(p)
		frontier := adj[p] & free
		for frontier != 0 {
			r |= frontier
			next := uint64(0)
			for f := frontier; f != 0; f &= f - 1 {
				next |= adj[bits.TrailingZeros64(f)]
			}
			frontier = next & free &^ r
		}
		if length+bits.OnesCount64(r)-1 <= best {
			return
		}
		for m := adj[p] & free; m != 0; m &= m - 1 {
			q := bits.TrailingZeros64(m)
			dfs(q, visited|1<<uint(q), length+1)
		}
	}
	for s := 0; s < n; s++ {
		dfs(s, 1<<uint(s), 0)
	}
	return best
}

// treeLongestPath computes the tree diameter (= longest path) by double
// BFS, exact for trees in linear time.
func (g *Graph) treeLongestPath() int {
	if g.N() == 0 {
		return 0
	}
	far := func(src int) (int, int) {
		dist := g.BFS(src)
		bi, bd := src, 0
		for i, d := range dist {
			if d > bd {
				bi, bd = i, d
			}
		}
		return bi, bd
	}
	a, _ := far(0)
	_, d := far(a)
	return d
}

// LongestPathLowerBound returns a lower bound on Lmax via repeated
// randomized DFS-greedy walks plus the double-BFS bound. Used for graphs
// too large for LongestPathExact.
func (g *Graph) LongestPathLowerBound(trials int, seed uint64) int {
	best := g.treeLowerBoundDoubleBFS()
	state := seed
	next := func(n int) int {
		// xorshift-ish local stream; deterministic in seed.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	visited := make([]bool, g.N())
	for t := 0; t < trials; t++ {
		for i := range visited {
			visited[i] = false
		}
		p := next(g.N())
		length := 0
		visited[p] = true
		for {
			var cands []int
			for _, q := range g.Row(p) {
				if !visited[q] {
					cands = append(cands, int(q))
				}
			}
			if len(cands) == 0 {
				break
			}
			p = cands[next(len(cands))]
			visited[p] = true
			length++
		}
		if length > best {
			best = length
		}
	}
	return best
}

func (g *Graph) treeLowerBoundDoubleBFS() int {
	if g.N() == 0 {
		return 0
	}
	far := func(src int) (int, int) {
		dist := g.BFS(src)
		bi, bd := src, 0
		for i, d := range dist {
			if d > bd {
				bi, bd = i, d
			}
		}
		return bi, bd
	}
	a, _ := far(0)
	_, d := far(a)
	return d
}
