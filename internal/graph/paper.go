package graph

import "fmt"

// This file builds the specific networks appearing in the paper's proofs
// and examples (Figures 1-6, 9 and 11).

// named returns the static graph g under another name, sharing its
// storage.
func (g *Graph) named(name string) *Graph {
	h := *g
	h.name = name
	return &h
}

// TheoremOneChain returns the anonymous 5-process chain p1-p2-p3-p4-p5
// used in the proof of Theorem 1 for Δ=2 (Figure 1). Process ids are
// 0-based: paper process p_i is id i-1.
func TheoremOneChain() *Graph {
	return Path(5).named("thm1-chain")
}

// TheoremOneStitched returns the 7-process chain p'1..p'7 onto which two
// silent executions of the 5-chain are stitched in Theorem 1's proof
// (Figure 1 (c)).
func TheoremOneStitched() *Graph {
	return Path(7).named("thm1-stitched")
}

// TheoremOneSpider returns the generalization of the Theorem 1
// construction for arbitrary Δ >= 2 (Figure 2): a Δ²+1-node graph with a
// center of degree Δ linked to Δ middle nodes of degree Δ, each middle
// node carrying Δ-1 pendant leaves. Process 0 is the center; middle nodes
// are 1..Δ; leaves follow.
func TheoremOneSpider(delta int) *Graph {
	if delta < 2 {
		panic("graph: TheoremOneSpider requires Δ >= 2")
	}
	return spiderDesc(delta).on(nil)
}

func spiderDesc(delta int) Desc {
	n := delta*delta + 1
	return fixed(fmt.Sprintf("thm1-spider-%d", delta), n, func(name string) *Graph {
		b := NewBuilder(n, name)
		next := delta + 1
		for mid := 1; mid <= delta; mid++ {
			b.MustAddEdge(0, mid)
			for leaf := 0; leaf < delta-1; leaf++ {
				b.MustAddEdge(mid, next)
				next++
			}
		}
		return b.Build()
	})
}

// RootedDag is a rooted, dag-oriented network, the setting of Theorem 2.
type RootedDag struct {
	Graph       *Graph
	Orientation *Orientation
	Root        int
}

// TheoremTwoNetwork returns the 6-process rooted dag-oriented network of
// Figure 3 (Δ=2). Reconstruction from the proof text:
//
//   - the network is a 6-cycle p1-p2-p5-p4-p6-p3-p1 (paper p_i is id i-1);
//   - Γ(p2) = {p1, p5} as used in the proof;
//   - p1 and p4 are sources, p5 and p6 are sinks (stated for the Δ=3
//     generalization, and required so that p6 "cannot use the orientation
//     to take its decision because the orientation is the same of each of
//     its two neighbors");
//   - the root is p1 (bold circle in Figure 3).
//
// Orientation: p1→p2, p2→p5, p4→p5, p4→p6, p3→p6, p1→p3.
func TheoremTwoNetwork() *RootedDag {
	g := theoremTwoDesc().on(nil)
	succ := [][]int{
		0: {1, 2}, // p1 → p2, p3 (source, root)
		1: {4},    // p2 → p5
		2: {5},    // p3 → p6
		3: {4, 5}, // p4 → p5, p6 (source)
		4: {},     // p5 sink
		5: {},     // p6 sink
	}
	o, err := NewOrientation(g, succ)
	if err != nil {
		panic(err)
	}
	return &RootedDag{Graph: g, Orientation: o, Root: 0}
}

// theoremTwoDesc describes the undirected 6-cycle under
// TheoremTwoNetwork.
func theoremTwoDesc() Desc {
	return fixed("thm2-net", 6, func(name string) *Graph {
		b := NewBuilder(6, name)
		// ids:      p1=0 p2=1 p3=2 p4=3 p5=4 p6=5
		b.MustAddEdge(0, 1) // p1-p2
		b.MustAddEdge(1, 4) // p2-p5
		b.MustAddEdge(3, 4) // p4-p5
		b.MustAddEdge(3, 5) // p4-p6
		b.MustAddEdge(2, 5) // p3-p6
		b.MustAddEdge(0, 2) // p1-p3
		return b.Build()
	})
}

// FigureNinePath returns the path network of Figure 9: the example
// matching the ♦-(⌊(Lmax+1)/2⌋, 1)-stability lower bound of Theorem 6.
// On a path of n processes, Lmax = n-1 and at least ⌊n/2⌋ processes are
// eventually dominated (hence 1-stable).
func FigureNinePath(n int) *Graph {
	return Path(n).named(fmt.Sprintf("fig9-path-%d", n))
}

// FigureElevenNetwork returns the network of Figure 11: Δ = 4, m = 14,
// admitting a maximal matching of exactly ⌈m/(2Δ-1)⌉ = 2 edges, matching
// Theorem 8's lower bound of 2⌈m/(2Δ-1)⌉ = 4 eventually-matched
// processes.
//
// Construction: two matched pairs (a1,b1)=(0,1) and (a2,b2)=(2,3), each
// endpoint of degree 4; 14 edges total; pendant processes 4..12 are only
// adjacent to matched endpoints, and shared pendants 7 and 9 make the
// network connected.
func FigureElevenNetwork() *Graph { return figureElevenDesc().on(nil) }

func figureElevenDesc() Desc {
	return fixed("fig11", 13, func(name string) *Graph {
		b := NewBuilder(13, name)
		a1, b1, a2, b2 := 0, 1, 2, 3
		b.MustAddEdge(a1, b1)
		b.MustAddEdge(a2, b2)
		// a1: pendants 4,5,6 ; b1: 6(shared-with-a1? no: shared with nothing), ...
		b.MustAddEdge(a1, 4)
		b.MustAddEdge(a1, 5)
		b.MustAddEdge(a1, 6)
		b.MustAddEdge(b1, 6) // pendant 6 shared by a1 and b1
		b.MustAddEdge(b1, 7)
		b.MustAddEdge(b1, 8)
		b.MustAddEdge(a2, 8) // pendant 8 shared by b1 and a2: connects the halves
		b.MustAddEdge(a2, 9)
		b.MustAddEdge(a2, 10)
		b.MustAddEdge(b2, 10) // pendant 10 shared by a2 and b2
		b.MustAddEdge(b2, 11)
		b.MustAddEdge(b2, 12)
		return b.Build()
	})
}
