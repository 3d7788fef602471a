package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/frozen"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
)

// This file hand-builds the stitched configurations of Figures 1-6
// deterministically. Each construction is exactly the final
// configuration the cut-and-stitch proofs of Theorems 1-2 produce: a
// seam of two adjacent processes whose communication states are jointly
// illegitimate, with every process's cur pointer (the one neighbor a
// frozen process keeps reading) aimed away from the seam, so the frozen
// protocol is deadlocked (silent) while the real protocol's scan
// discovers the seam.

// Theorem1Coloring7Chain builds the configuration of Figure 1 (c): the
// 7-process chain p'1..p'7 obtained by stitching two silent executions
// of the 5-chain, with a color conflict on the seam edge {p'3, p'4}
// (0-based ids 2 and 3).
func Theorem1Coloring7Chain() (*Demo, error) {
	g := graph.TheoremOneStitched() // path of 7
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	colors := []int{0, 1, 0 /*seam*/, 0 /*seam*/, 1, 0, 1}
	for p, c := range colors {
		cfg.SetComm(p, coloring.VarC, c)
	}
	// cur pointers: the seam processes look away from each other
	// (p'3 at its left neighbor, p'4 at its right neighbor); everyone
	// else rests on any conflict-free neighbor.
	cfg.SetInternal(2, coloring.VarCur, 0) // p'3 → p'2 (port 1 = left)
	cfg.SetInternal(3, coloring.VarCur, 1) // p'4 → p'5 (port 2 = right)
	// Interior non-seam processes: point left (different color by
	// construction); endpoints have a single port.
	cfg.SetInternal(1, coloring.VarCur, 0)
	cfg.SetInternal(4, coloring.VarCur, 0)
	cfg.SetInternal(5, coloring.VarCur, 0)
	return &Demo{
		Name:   "thm1-coloring-7chain",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  2, SeamQ: 3,
	}, nil
}

// Theorem1Coloring5Chain builds the configuration of Figure 1 (d): the
// direct 5-chain stitch with the seam on edge {p'3, p'4}.
func Theorem1Coloring5Chain() (*Demo, error) {
	g := graph.TheoremOneChain()
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	colors := []int{0, 1, 0 /*seam*/, 0 /*seam*/, 1}
	for p, c := range colors {
		cfg.SetComm(p, coloring.VarC, c)
	}
	cfg.SetInternal(2, coloring.VarCur, 0) // p'3 → left
	cfg.SetInternal(3, coloring.VarCur, 1) // p'4 → right
	cfg.SetInternal(1, coloring.VarCur, 0)
	return &Demo{
		Name:   "thm1-coloring-5chain",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  2, SeamQ: 3,
	}, nil
}

// Theorem1MIS5Chain builds a silent illegitimate configuration for the
// frozen MIS protocol on the 5-chain (with local identifiers, since MIS
// requires them): two adjacent
// Dominators on the seam edge, each resting its cur pointer on a
// dominated neighbor, so neither ever learns about the other.
//
// Local identifiers (1-based colors): [1, 2, 1, 2, 3];
// S: [Dominator, dominated, Dominator, Dominator, dominated].
func Theorem1MIS5Chain() (*Demo, error) {
	g := graph.TheoremOneChain()
	colors := []int{1, 2, 1, 2, 3}
	maxColors := 3
	fsys, err := mis.NewSystem(g, frozen.MISSpec(maxColors), colors)
	if err != nil {
		return nil, err
	}
	rsys, err := mis.NewSystem(g, mis.Spec(maxColors), colors)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	states := []int{mis.Dominator, mis.Dominated, mis.Dominator, mis.Dominator, mis.Dominated}
	for p, s := range states {
		cfg.SetComm(p, mis.VarS, s)
	}
	// cur pointers (0-based):
	//   p0 → p1 (only port) : Dominator watching a dominated neighbor.
	//   p1 → p0 (port 1)    : dominated, watching Dominator with smaller color.
	//   p2 → p1 (port 1)    : seam Dominator looking left at a dominated.
	//   p3 → p4 (port 2)    : seam Dominator looking right at a dominated.
	//   p4 → p3 (only port) : dominated, watching Dominator with smaller color.
	cfg.SetInternal(1, mis.VarCur, 0)
	cfg.SetInternal(2, mis.VarCur, 0)
	cfg.SetInternal(3, mis.VarCur, 1)
	return &Demo{
		Name:   "thm1-mis-5chain",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  mis.IsLegitimate,
		SeamP:  2, SeamQ: 3,
	}, nil
}

// Theorem1Matching6Chain builds a silent illegitimate configuration for
// the frozen MATCHING protocol on a 6-chain: the end pairs {0,1} and
// {4,5} are married; the middle processes 2 and 3 are both free but rest
// their cur pointers on their married neighbors, so the matching is
// never extended across the seam edge {2, 3}.
func Theorem1Matching6Chain() (*Demo, error) {
	g := graph.Path(6)
	colors := graph.GreedyLocalColoring(g) // [1 2 1 2 1 2]
	maxColors := g.MaxDegree() + 1
	fsys, err := matching.NewSystem(g, frozen.MatchingSpec(maxColors), colors)
	if err != nil {
		return nil, err
	}
	rsys, err := matching.NewSystem(g, matching.Spec(maxColors), colors)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	marry := func(a, b int) {
		cfg.SetComm(a, matching.VarPR, g.PortOf(a, b))
		cfg.SetComm(b, matching.VarPR, g.PortOf(b, a))
		cfg.SetComm(a, matching.VarM, 1)
		cfg.SetComm(b, matching.VarM, 1)
		cfg.SetInternal(a, matching.VarCur, g.PortOf(a, b)-1)
		cfg.SetInternal(b, matching.VarCur, g.PortOf(b, a)-1)
	}
	marry(0, 1)
	marry(4, 5)
	// Free seam processes look away from each other, at married
	// neighbors (PR ≠ 0 there, so propose/accept stay disabled).
	cfg.SetInternal(2, matching.VarCur, g.PortOf(2, 1)-1)
	cfg.SetInternal(3, matching.VarCur, g.PortOf(3, 4)-1)
	return &Demo{
		Name:   "thm1-matching-6chain",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  matching.IsLegitimate,
		SeamP:  2, SeamQ: 3,
	}, nil
}

// Theorem2Coloring builds the configuration of Figure 4 (c) on the
// rooted dag-oriented 6-process network of Figure 3: the seam is the
// edge {p2, p5} (0-based ids 1 and 4); p2 keeps reading p1 and p5 keeps
// reading p4, so the conflict between them is never observed even though
// the network is rooted and dag-oriented.
func Theorem2Coloring() (*Demo, error) {
	rd := graph.TheoremTwoNetwork()
	g := rd.Graph
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	// ids:           p1 p2 p3 p4 p5 p6
	colors := []int{1, 0, 2, 2, 0, 1}
	// Edges: (0,1) 1-0 ok, (1,4) 0-0 SEAM, (3,4) 2-0 ok, (3,5) 2-1 ok,
	// (2,5) 2-1 ok, (0,2) 1-2 ok.
	for p, c := range colors {
		cfg.SetComm(p, coloring.VarC, c)
	}
	set := func(p, q int) {
		cfg.SetInternal(p, coloring.VarCur, g.PortOf(p, q)-1)
	}
	set(1, 0) // p2 reads p1, never p5
	set(4, 3) // p5 reads p4, never p2
	set(0, 1)
	set(2, 5)
	set(3, 4)
	set(5, 2)
	return &Demo{
		Name:   "thm2-coloring-dag",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  1, SeamQ: 4,
	}, nil
}

// TheoremOneSpiderColoring generalizes the Theorem 1 construction to
// arbitrary Δ >= 2 on the Δ²+1-node spider of Figure 2: the center and
// one middle node share a color; the center rests its pointer on another
// middle node, the conflicting middle node on one of its pendant leaves.
func TheoremOneSpiderColoring(delta int) (*Demo, error) {
	if delta < 2 {
		return nil, fmt.Errorf("verify: spider construction needs Δ >= 2")
	}
	g := graph.TheoremOneSpider(delta)
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	// Colors: center = 0; middle node 1 = 0 (SEAM with center);
	// middle nodes 2..Δ = 1; every leaf = 2 (Δ >= 2 so palette has >= 3).
	cfg.SetComm(0, coloring.VarC, 0)
	cfg.SetComm(1, coloring.VarC, 0)
	for mid := 2; mid <= delta; mid++ {
		cfg.SetComm(mid, coloring.VarC, 1)
	}
	for leaf := delta + 1; leaf < g.N(); leaf++ {
		cfg.SetComm(leaf, coloring.VarC, 2)
	}
	// Pointers: center reads middle node 2 (color 1 ≠ 0): disabled.
	cfg.SetInternal(0, coloring.VarCur, g.PortOf(0, 2)-1)
	// Middle node 1 reads its first leaf (color 2 ≠ 0): disabled.
	for port := 1; port <= g.Degree(1); port++ {
		if g.Neighbor(1, port) != 0 {
			cfg.SetInternal(1, coloring.VarCur, port-1)
			break
		}
	}
	// Other middles read a leaf; leaves read their middle (colors differ).
	for mid := 2; mid <= delta; mid++ {
		for port := 1; port <= g.Degree(mid); port++ {
			if g.Neighbor(mid, port) != 0 {
				cfg.SetInternal(mid, coloring.VarCur, port-1)
				break
			}
		}
	}
	return &Demo{
		Name:   fmt.Sprintf("thm1-coloring-spider-%d", delta),
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  0, SeamQ: 1,
	}, nil
}

// AllHandcrafted returns every deterministic construction.
func AllHandcrafted() ([]*Demo, error) {
	var demos []*Demo
	for _, build := range []func() (*Demo, error){
		Theorem1Coloring7Chain,
		Theorem1Coloring5Chain,
		Theorem1MIS5Chain,
		Theorem1Matching6Chain,
		Theorem2Coloring,
	} {
		d, err := build()
		if err != nil {
			return nil, err
		}
		demos = append(demos, d)
	}
	for delta := 2; delta <= 4; delta++ {
		d, err := TheoremOneSpiderColoring(delta)
		if err != nil {
			return nil, err
		}
		demos = append(demos, d)
	}
	return demos, nil
}
