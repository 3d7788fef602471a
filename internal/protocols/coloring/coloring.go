// Package coloring implements Protocol COLORING (paper Figure 7): a
// 1-efficient probabilistic self-stabilizing (Δ+1)-vertex-coloring for
// arbitrary anonymous networks (Theorem 3), plus a classical full-read
// baseline used by the communication-complexity experiments (§3.2).
//
// Encodings: the paper's color domain {1..Δ+1} is stored 0-based as
// 0..Δ; the paper's cur pointer [1..δ.p] is stored 0-based as 0..δ.p-1
// (port = cur+1).
package coloring

import (
	"repro/internal/model"
)

// Variable indices within the specs.
const (
	// VarC is the communication variable C.p (the color).
	VarC = 0
	// VarCur is the internal round-robin pointer cur.p.
	VarCur = 0
)

// Spec returns Protocol COLORING for any process p (Figure 7):
//
//	Communication Variable: C.p ∈ {1..Δ+1}
//	Internal Variable:      cur.p ∈ [1..δ.p]
//
//	(C.p = C.(cur.p)) → C.p ← random({1..Δ+1}); cur.p ← (cur.p mod δ.p)+1
//	(C.p ≠ C.(cur.p)) → cur.p ← (cur.p mod δ.p)+1
//
// Every guard reads the communication state of exactly one neighbor (the
// one behind cur.p), so the protocol is 1-efficient by construction; the
// trace layer re-verifies that at run time.
func Spec() *model.Spec {
	return &model.Spec{
		Name: "COLORING",
		Comm: []model.VarSpec{{
			Name:   "C",
			Domain: func(i model.DomainInfo) int { return i.Delta + 1 },
		}},
		Internal: []model.VarSpec{{
			Name:   "cur",
			Domain: func(i model.DomainInfo) int { return i.Degree },
		}},
		Actions: []model.Action{
			{
				Name: "conflict: recolor and advance",
				Guard: func(c *model.Ctx) bool {
					cur := c.Internal(VarCur)
					return c.Comm(VarC) == c.NeighborComm(cur+1, VarC)
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarC, c.Rand(c.Delta()+1))
					c.SetInternal(VarCur, (c.Internal(VarCur)+1)%c.Deg())
				},
				Randomized: true,
			},
			{
				Name: "no conflict: advance",
				Guard: func(c *model.Ctx) bool {
					cur := c.Internal(VarCur)
					return c.Comm(VarC) != c.NeighborComm(cur+1, VarC)
				},
				Apply: func(c *model.Ctx) {
					c.SetInternal(VarCur, (c.Internal(VarCur)+1)%c.Deg())
				},
			},
		},
		First:      first,
		Legitimate: legitimate,
	}
}

// first is Spec's guard walk in one pass: one read of C.(cur.p) decides
// between the two complementary guards.
func first(c *model.Ctx) int {
	if c.Comm(VarC) == c.NeighborComm(c.Internal(VarCur)+1, VarC) {
		return 0
	}
	return 1
}

// BaselineSpec returns the traditional full-read randomized coloring the
// paper compares against in §3.2 ("a traditional coloring protocol that
// reads the state of every neighbor at each step has communication
// complexity Δ·log(Δ+1)"): on any conflict, pick a random color among
// those not used by any neighbor (a free color always exists in a Δ+1
// palette). In the style of Gradinariu & Tixeuil (OPODIS 2000).
func BaselineSpec() *model.Spec {
	readAllColors := func(c *model.Ctx) []int {
		colors := c.Scratch(c.Deg())
		for port := 1; port <= c.Deg(); port++ {
			colors[port-1] = c.NeighborComm(port, VarC)
		}
		return colors
	}
	hasConflict := func(c *model.Ctx) bool {
		own := c.Comm(VarC)
		conflict := false
		// Deliberately no short-circuit: the baseline's defining cost is
		// that it reads every neighbor at every step.
		for _, col := range readAllColors(c) {
			if col == own {
				conflict = true
			}
		}
		return conflict
	}
	return &model.Spec{
		Name: "COLORING-FULLREAD",
		Comm: []model.VarSpec{{
			Name:   "C",
			Domain: func(i model.DomainInfo) int { return i.Delta + 1 },
		}},
		Actions: []model.Action{
			{
				Name:  "conflict: pick random free color",
				Guard: hasConflict,
				Apply: func(c *model.Ctx) {
					used := c.Scratch(c.Delta() + 1)
					for i := range used {
						used[i] = 0
					}
					for _, col := range readAllColors(c) {
						used[col] = 1
					}
					free := c.Scratch(c.Delta() + 1)
					nFree := 0
					for col, u := range used {
						if u == 0 {
							free[nFree] = col
							nFree++
						}
					}
					c.SetComm(VarC, free[c.Rand(nFree)])
				},
				Randomized: true,
			},
		},
		Legitimate: legitimate,
	}
}

// Colors extracts the (1-based, paper-facing) color vector from a
// configuration of either spec.
func Colors(cfg *model.Config) []int {
	out := make([]int, cfg.N())
	for p := range cfg.N() {
		out[p] = cfg.Comm(p, VarC) + 1
	}
	return out
}

// legitimate is both specs' predicate at p, the vertex coloring there:
// C.p ≠ C.q for every neighbor q.
func legitimate(sys *model.System, cfg *model.Config, p int) bool {
	g := sys.Graph()
	for port := 1; port <= g.Degree(p); port++ {
		if cfg.Comm(p, VarC) == cfg.Comm(g.Neighbor(p, port), VarC) {
			return false
		}
	}
	return true
}
