package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
)

// Desc describes a topology without building it: the name and size the
// built graph will report. Both cost arithmetic, so a caller that only
// keys, de-duplicates or size-checks topologies (campaign.Compile) never
// pays for the edges. Every family below is a descriptor function plus
// the constructor that builds through it; the descriptor is the one
// place the family's name is formatted.
type Desc struct {
	Name string
	N    int

	// seed is what Build seeds a random family's draw stream with.
	seed uint64
	// build lays out the edges under the given name, drawing from r (nil
	// for the deterministic families, which ignore it).
	build func(name string, r *rng.Rand) (*Graph, error)
}

// Build constructs the described topology. A random family draws from a
// fresh stream of the seed it was described with, so every Build of one
// descriptor returns the same graph.
func (d Desc) Build() (*Graph, error) { return d.build(d.Name, rng.New(d.seed)) }

// seeded returns d drawing from a stream of seed at Build.
func (d Desc) seeded(seed uint64) Desc {
	d.seed = seed
	return d
}

// on builds a family whose build cannot fail, drawing from r.
func (d Desc) on(r *rng.Rand) *Graph {
	g, err := d.build(d.Name, r)
	if err != nil {
		panic(err)
	}
	return g
}

// fixed describes a deterministic family.
func fixed(name string, n int, edges func(name string) *Graph) Desc {
	return Desc{Name: name, N: n, build: func(name string, _ *rng.Rand) (*Graph, error) {
		return edges(name), nil
	}}
}

// random describes a random family whose build cannot fail.
func random(name string, n int, edges func(name string, r *rng.Rand) *Graph) Desc {
	return Desc{Name: name, N: n, build: func(name string, r *rng.Rand) (*Graph, error) {
		return edges(name, r), nil
	}}
}

// Path returns the path graph p0 - p1 - ... - p(n-1).
func Path(n int) *Graph { return pathDesc(n).on(nil) }

func pathDesc(n int) Desc {
	return fixed(fmt.Sprintf("path-%d", n), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for i := 0; i+1 < n; i++ {
			b.MustAddEdge(i, i+1)
		}
		return b.Build()
	})
}

// Cycle returns the cycle graph on n >= 3 processes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	return cycleDesc(n).on(nil)
}

func cycleDesc(n int) Desc {
	return fixed(fmt.Sprintf("cycle-%d", n), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for i := 0; i < n; i++ {
			b.MustAddEdge(i, (i+1)%n)
		}
		return b.Build()
	})
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return completeDesc(n).on(nil) }

func completeDesc(n int) Desc {
	return fixed(fmt.Sprintf("complete-%d", n), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b.MustAddEdge(i, j)
			}
		}
		return b.Build()
	})
}

// Star returns the star K_{1,n-1}: process 0 is the hub.
func Star(n int) *Graph { return starDesc(n).on(nil) }

func starDesc(n int) Desc {
	return fixed(fmt.Sprintf("star-%d", n), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for i := 1; i < n; i++ {
			b.MustAddEdge(0, i)
		}
		return b.Build()
	})
}

// Grid returns the w x h grid graph; process (x, y) has id y*w + x.
func Grid(w, h int) *Graph { return gridDesc(w, h).on(nil) }

func gridDesc(w, h int) Desc {
	return fixed(fmt.Sprintf("grid-%dx%d", w, h), w*h, func(name string) *Graph {
		b := NewBuilder(w*h, name)
		id := func(x, y int) int { return y*w + x }
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					b.MustAddEdge(id(x, y), id(x+1, y))
				}
				if y+1 < h {
					b.MustAddEdge(id(x, y), id(x, y+1))
				}
			}
		}
		return b.Build()
	})
}

// Torus returns the w x h torus (grid with wraparound); w, h >= 3.
// Construction is CSR-direct (see csr.go): the edges are emitted twice,
// once to count degrees and once to fill rows, straight into the flat
// adjacency arenas, with no edge list and no builder map — a 1000×1000
// torus is 4 million neighbor ids and back ports, not a 2-million-entry
// hash map.
func Torus(w, h int) *Graph {
	if w < 3 || h < 3 {
		panic("graph: Torus requires w, h >= 3")
	}
	return torusDesc(w, h).on(nil)
}

func torusDesc(w, h int) Desc {
	n := w * h
	return Desc{Name: fmt.Sprintf("torus-%dx%d", w, h), N: n, build: func(name string, _ *rng.Rand) (*Graph, error) {
		id := func(x, y int) int32 { return int32(y*w + x) }
		return csrFromStream(name, n, func(edge func(u, v int32)) {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					edge(id(x, y), id((x+1)%w, y))
					edge(id(x, y), id(x, (y+1)%h))
				}
			}
		})
	}}
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d processes.
func Hypercube(d int) *Graph { return hypercubeDesc(d).on(nil) }

func hypercubeDesc(d int) Desc {
	n := 1 << d
	return fixed(fmt.Sprintf("hypercube-%d", d), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for v := 0; v < n; v++ {
			for bit := 0; bit < d; bit++ {
				u := v ^ (1 << bit)
				if v < u {
					b.MustAddEdge(v, u)
				}
			}
		}
		return b.Build()
	})
}

// BalancedBinaryTree returns a complete binary tree of the given depth
// (depth 0 is a single process).
func BalancedBinaryTree(depth int) *Graph { return binaryTreeDesc(depth).on(nil) }

func binaryTreeDesc(depth int) Desc {
	n := (1 << (depth + 1)) - 1
	return fixed(fmt.Sprintf("bintree-%d", depth), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, (v-1)/2)
		}
		return b.Build()
	})
}

// Caterpillar returns a caterpillar tree: a spine path of `spine`
// processes, each carrying `legs` pendant processes.
func Caterpillar(spine, legs int) *Graph { return caterpillarDesc(spine, legs).on(nil) }

func caterpillarDesc(spine, legs int) Desc {
	n := spine * (1 + legs)
	return fixed(fmt.Sprintf("caterpillar-%dx%d", spine, legs), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for i := 0; i+1 < spine; i++ {
			b.MustAddEdge(i, i+1)
		}
		next := spine
		for i := 0; i < spine; i++ {
			for l := 0; l < legs; l++ {
				b.MustAddEdge(i, next)
				next++
			}
		}
		return b.Build()
	})
}

// randomTreeDesc describes a uniform random labelled tree on n processes
// drawn from a random Prüfer sequence (the `tree` family).
func randomTreeDesc(n int) Desc {
	return random(fmt.Sprintf("rtree-%d", n), n, func(name string, r *rng.Rand) *Graph {
		return randomTree(name, n, r)
	})
}

func randomTree(name string, n int, r *rng.Rand) *Graph {
	b := NewBuilder(n, name)
	if n <= 1 {
		return b.Build()
	}
	if n == 2 {
		b.MustAddEdge(0, 1)
		return b.Build()
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = r.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	// Standard Prüfer decoding with a sorted leaf set.
	used := make([]bool, n)
	for _, v := range prufer {
		leaf := -1
		for u := 0; u < n; u++ {
			if degree[u] == 1 && !used[u] {
				leaf = u
				break
			}
		}
		b.MustAddEdge(leaf, v)
		used[leaf] = true
		degree[v]--
	}
	var last []int
	for u := 0; u < n; u++ {
		if !used[u] && degree[u] == 1 {
			last = append(last, u)
		}
	}
	b.MustAddEdge(last[0], last[1])
	return b.Build()
}

// gnpStreamThreshold is the size above which RandomConnectedGNP samples
// edges by geometric skips instead of per-pair Bernoulli draws. Below
// it, the historical draw stream is preserved exactly (every committed
// golden that uses GNP graphs is far below it); above it, the draw
// stream is version-bumped — documented here, not silent — because an
// O(n²) stream cannot reach n = 10⁶. The sampled distribution is the
// same either way: each non-tree pair appears independently with
// probability p. A var only so tests can exercise the streaming path at
// checkable sizes.
var gnpStreamThreshold = 4096

// RandomConnectedGNP returns a connected Erdős–Rényi-style random graph:
// a uniform random spanning tree plus each remaining pair independently
// with probability p.
//
// For n above gnpStreamThreshold the pair sweep runs by geometric skip
// sampling — O(m) draws rather than O(n²) — with skips that land on
// spanning-tree edges discarded (sampling a superset keeps non-tree
// pairs independent at probability p). That changes the seed→graph
// mapping at large n relative to the historical per-pair stream; see
// gnpStreamThreshold.
func RandomConnectedGNP(n int, p float64, r *rng.Rand) *Graph { return gnpDesc(n, p).on(r) }

func gnpDesc(n int, p float64) Desc {
	return Desc{Name: fmt.Sprintf("gnp-%d-%.3f", n, p), N: n, build: func(name string, r *rng.Rand) (*Graph, error) {
		return randomConnectedGNP(name, n, p, r)
	}}
}

func randomConnectedGNP(name string, n int, p float64, r *rng.Rand) (*Graph, error) {
	// Random spanning tree by random attachment to ensure connectivity.
	perm := r.Perm(n)
	edges := make([][2]int32, 0, n-1+int(p*float64(n)*float64(n-1)/2))
	treeKeys := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[r.Intn(i)]
		edges = append(edges, [2]int32{int32(u), int32(v)})
		treeKeys = append(treeKeys, packEdge(u, v))
	}
	slices.Sort(treeKeys)
	if n <= gnpStreamThreshold || p <= 0 || p >= 1 {
		// Historical per-pair Bernoulli stream: a draw for every
		// non-tree pair, in ascending pair order.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !searchInt64(treeKeys, packEdge(u, v)) && r.Float64() < p {
					edges = append(edges, [2]int32{int32(u), int32(v)})
				}
			}
		}
		return csrFromEdges(name, n, edges)
	}
	// Geometric skip sampling over the ascending pair order: the gap to
	// the next sampled pair is Geometric(p), so the sweep costs one draw
	// per *edge*, not per pair. Row advancement is incremental — the
	// inner loop walks each row header at most once across the whole
	// sweep, so the total cost is O(n + m).
	logq := math.Log1p(-p)
	u, v := 0, 0 // position just before the first pair (0,1)
	for {
		gap := math.Log(1-r.Float64()) / logq
		if gap > float64(n)*float64(n) {
			break // jump past every remaining pair; avoid int overflow
		}
		skip := 1 + int(gap)
		if skip < 1 {
			skip = 1 // guard against rounding at tiny draws
		}
		v += skip
		for u < n-1 && v >= n {
			excess := v - n
			u++
			v = u + 1 + excess
		}
		if u >= n-1 {
			break
		}
		if !searchInt64(treeKeys, packEdge(u, v)) {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return csrFromEdges(name, n, edges)
}

// RandomRegular returns a random d-regular connected graph on n processes
// via the pairing (configuration) model with rejection. n*d must be even
// and d < n. It retries until a simple connected pairing is found.
func RandomRegular(n, d int, r *rng.Rand) (*Graph, error) {
	desc, err := regularDesc(n, d)
	if err != nil {
		return nil, err
	}
	return desc.build(desc.Name, r)
}

// regularDesc rejects the (n, d) no d-regular connected graph exists
// for; the pairing itself can still run out of attempts at build time.
func regularDesc(n, d int) (Desc, error) {
	if n*d%2 != 0 {
		return Desc{}, fmt.Errorf("graph: RandomRegular: n*d must be even (n=%d d=%d)", n, d)
	}
	if d >= n {
		return Desc{}, fmt.Errorf("graph: RandomRegular: need d < n (n=%d d=%d)", n, d)
	}
	if d == 0 {
		return Desc{}, fmt.Errorf("graph: RandomRegular: need d >= 1")
	}
	if d == 1 && n > 2 {
		return Desc{}, fmt.Errorf("graph: RandomRegular: a 1-regular graph on n=%d > 2 is disconnected", n)
	}
	return Desc{Name: fmt.Sprintf("regular-%d-%d", n, d), N: n, build: func(name string, r *rng.Rand) (*Graph, error) {
		return randomRegular(name, n, d, r)
	}}, nil
}

func randomRegular(name string, n, d int, r *rng.Rand) (*Graph, error) {
	// The pairing loop fills fixed-degree CSR arenas directly (every
	// vertex ends at exactly d neighbors, so row offsets are v*d): the
	// duplicate-edge rejection scans u's partial row — O(d) against the
	// builder map's per-edge hash entry — and rejected attempts reuse the
	// arenas. Edge insertion order, and with it the rejection and
	// connectivity stream, matches the historical Builder path exactly.
	const maxAttempts = 5000
	if err := fits(n, n*d); err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	for v := range off {
		off[v] = int32(v * d)
	}
	g := &Graph{name: name, off: off, end: off[1:], m: n * d / 2,
		nbr: make([]int32, n*d), back: make([]uint16, n*d)}
	stubs := make([]int32, n*d)
	cnt := make([]int32, n)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// Refill in sorted order every attempt: the historical path
		// rebuilt the stub list from scratch, so each shuffle starts from
		// the same arrangement — reusing the shuffled buffer would
		// change the seed→graph mapping.
		for i := range stubs {
			stubs[i] = int32(i / d)
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		for i := range cnt {
			cnt[i] = 0
		}
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || slices.Contains(g.nbr[off[u]:off[u]+cnt[u]], v) {
				ok = false
				break
			}
			iu, iv := cnt[u], cnt[v]
			g.nbr[off[u]+iu], g.nbr[off[v]+iv] = v, u
			g.back[off[u]+iu], g.back[off[v]+iv] = narrowBack(iv), narrowBack(iu)
			cnt[u], cnt[v] = iu+1, iv+1
		}
		if ok && g.IsConnected() {
			return g, nil
		}
		// Rejected or disconnected: the next attempt overwrites the arenas.
	}
	return nil, fmt.Errorf("graph: RandomRegular: no simple connected pairing after %d attempts", maxAttempts)
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, edges between pairs closer than radius. If the result
// is disconnected, closest pairs across components are linked so the
// graph is always connected (documented substitution: sensor networks are
// deployed to be connected).
func RandomGeometric(n int, radius float64, r *rng.Rand) *Graph {
	return geometricDesc(n, radius).on(r)
}

func geometricDesc(n int, radius float64) Desc {
	return random(fmt.Sprintf("rgg-%d-%.2f", n, radius), n, func(name string, r *rng.Rand) *Graph {
		return randomGeometric(name, n, radius, r)
	})
}

func randomGeometric(name string, n int, radius float64, r *rng.Rand) *Graph {
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{r.Float64(), r.Float64()}
	}
	dist := func(a, b pt) float64 {
		dx, dy := a.x-b.x, a.y-b.y
		return math.Sqrt(dx*dx + dy*dy)
	}
	b := NewBuilder(n, name)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist(pts[i], pts[j]) <= radius {
				b.MustAddEdge(i, j)
			}
		}
	}
	// Connect components by repeatedly linking the globally closest
	// cross-component pair.
	for {
		comp := components(b)
		numComp := 0
		for _, c := range comp {
			if c+1 > numComp {
				numComp = c + 1
			}
		}
		if numComp <= 1 {
			break
		}
		bestI, bestJ, bestD := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] != comp[j] {
					if d := dist(pts[i], pts[j]); d < bestD {
						bestI, bestJ, bestD = i, j, d
					}
				}
			}
		}
		b.MustAddEdge(bestI, bestJ)
	}
	return b.Build()
}

// components labels builder vertices by connected component.
func components(b *Builder) []int {
	adj := make([][]int, b.n)
	for _, e := range b.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	comp := make([]int, b.n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	for s := 0; s < b.n; s++ {
		if comp[s] != -1 {
			continue
		}
		stack := []int{s}
		comp[s] = c
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if comp[u] == -1 {
					comp[u] = c
					stack = append(stack, u)
				}
			}
		}
		c++
	}
	return comp
}

// Lollipop returns a clique of size k attached to a path of length tail.
// A classic worst case for scan-based protocols.
func Lollipop(k, tail int) *Graph { return lollipopDesc(k, tail).on(nil) }

func lollipopDesc(k, tail int) Desc {
	n := k + tail
	return fixed(fmt.Sprintf("lollipop-%d-%d", k, tail), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				b.MustAddEdge(i, j)
			}
		}
		for i := 0; i < tail; i++ {
			if i == 0 {
				b.MustAddEdge(k-1, k)
			} else {
				b.MustAddEdge(k+i-1, k+i)
			}
		}
		return b.Build()
	})
}

// Named builds a generator's topology by name, for CLI use: Describe,
// then Build. Supported names are listed by NamedGenerators.
func Named(name string, n int, seed uint64) (*Graph, error) {
	d, err := Describe(name, n, seed)
	if err != nil {
		return nil, err
	}
	return d.Build()
}

// Describe looks up a generator by name and resolves the size it will
// actually build (many families clamp or round n) without building it.
// seed feeds the random families' draw streams.
func Describe(name string, n int, seed uint64) (Desc, error) {
	d, err := describe(name, n)
	return d.seeded(seed), err
}

// DescribeRegular describes RandomRegular(n, d, rng.New(seed)).
func DescribeRegular(n, d int, seed uint64) (Desc, error) {
	desc, err := regularDesc(n, d)
	return desc.seeded(seed), err
}

// DescribeGNP describes RandomConnectedGNP(n, p, rng.New(seed)).
func DescribeGNP(n int, p float64, seed uint64) Desc { return gnpDesc(n, p).seeded(seed) }

// DescribeGeometric describes RandomGeometric(n, radius, rng.New(seed)).
func DescribeGeometric(n int, radius float64, seed uint64) Desc {
	return geometricDesc(n, radius).seeded(seed)
}

// DescribeLattice describes the w × h grid or torus (family "grid" or
// "torus"); a torus needs w, h >= 3.
func DescribeLattice(family string, w, h int) (Desc, error) {
	switch {
	case family != "grid" && family != "torus":
		return Desc{}, fmt.Errorf("graph: %q is not a lattice family (want grid or torus)", family)
	case w < 1 || h < 1:
		return Desc{}, fmt.Errorf("graph: a %s needs w, h >= 1 (w=%d h=%d)", family, w, h)
	case family == "grid":
		return gridDesc(w, h), nil
	case w < 3 || h < 3:
		return Desc{}, fmt.Errorf("graph: a torus needs w, h >= 3 (w=%d h=%d)", w, h)
	}
	return torusDesc(w, h), nil
}

func describe(name string, n int) (Desc, error) {
	switch name {
	case "path":
		return pathDesc(n), nil
	case "cycle":
		return cycleDesc(max(n, 3)), nil
	case "complete":
		return completeDesc(n), nil
	case "star":
		return starDesc(n), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 2 {
			side = 2
		}
		return gridDesc(side, side), nil
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 3 {
			side = 3
		}
		return torusDesc(side, side), nil
	case "hypercube":
		d := 1
		for (1 << (d + 1)) <= n {
			d++
		}
		return hypercubeDesc(d), nil
	case "tree":
		return randomTreeDesc(n), nil
	case "bintree":
		d := 0
		for (1<<(d+2))-1 <= n {
			d++
		}
		return binaryTreeDesc(d), nil
	case "caterpillar":
		spine := max(n/3, 1)
		return caterpillarDesc(spine, 2), nil
	case "gnp":
		return gnpDesc(n, 4.0/float64(max(n, 2))), nil
	case "regular":
		d := 4
		if d >= n {
			d = max(n-1, 1)
		}
		if n*d%2 != 0 {
			d--
		}
		if d < 1 {
			return Desc{}, fmt.Errorf("graph: cannot build regular graph on n=%d", n)
		}
		return regularDesc(n, d)
	case "rgg":
		radius := math.Sqrt(3.0 / float64(max(n, 2)))
		return geometricDesc(n, radius), nil
	case "lollipop":
		if n < 3 {
			return Desc{}, fmt.Errorf("graph: lollipop needs n >= 3 (n=%d)", n)
		}
		k := max(n/2, 3)
		return lollipopDesc(k, n-k), nil
	case "spider":
		return spiderDesc(4), nil
	case "theorem2":
		return theoremTwoDesc(), nil
	case "figure11":
		return figureElevenDesc(), nil
	default:
		return Desc{}, fmt.Errorf("graph: unknown generator %q (known: %v)", name, NamedGenerators())
	}
}

// NamedGenerators returns the generator names accepted by Named, sorted.
func NamedGenerators() []string {
	names := []string{
		"path", "cycle", "complete", "star", "grid", "torus", "hypercube",
		"tree", "bintree", "caterpillar", "gnp", "regular", "rgg",
		"lollipop", "spider", "theorem2", "figure11",
	}
	sort.Strings(names)
	return names
}
