// Package mis implements Protocol MIS (paper Figure 8): a 1-efficient
// deterministic self-stabilizing maximal-independent-set protocol for
// locally identified networks (Theorem 5), stabilizing within Δ × #C
// rounds (Lemma 4) and ♦-(⌊(Lmax+1)/2⌋, 1)-stable (Theorem 6); plus a
// classical full-read baseline in the style of Ikeda, Kamei & Kakugawa
// (PDCAT 2002), adapted to local colors.
//
// Encodings: S.p ∈ {Dominator, dominated} is stored as 1/0; the color
// constant C.p (1-based in the paper) is stored 0-based; the cur pointer
// is stored 0-based (port = cur+1). The color order ≺ is integer <.
package mis

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// Communication-variable, constant and internal-variable indices.
const (
	// VarS is the communication variable S.p.
	VarS = 0
	// ConstC is the communication constant C.p (the local identifier).
	ConstC = 0
	// VarCur is the internal round-robin pointer cur.p.
	VarCur = 0
)

// S.p values.
const (
	Dominated = 0
	Dominator = 1
)

// Spec returns Protocol MIS for any process p (Figure 8):
//
//	Communication Variable: S.p ∈ {Dominator, dominated}
//	Communication Constant: C.p: color
//	Internal Variable:      cur.p ∈ [1..δ.p]
//
//	(S.(cur.p)=Dominator ∧ C.(cur.p)≺C.p ∧ S.p=Dominator) → S.p ← dominated
//	[(S.(cur.p)=dominated ∨ C.p≺C.(cur.p)) ∧ S.p=dominated]
//	                      → S.p ← Dominator; cur.p ← (cur.p mod δ.p)+1
//	(S.p = Dominator)     → cur.p ← (cur.p mod δ.p)+1
//
// maxColors is the color-palette size (domain of C); use Δ+1 for greedy
// local colorings.
func Spec(maxColors int) *model.Spec {
	return &model.Spec{
		Name: "MIS",
		Comm: []model.VarSpec{{
			Name:   "S",
			Domain: model.FixedDomain(2),
		}},
		Const: []model.VarSpec{{
			Name:   "C",
			Domain: model.FixedDomain(maxColors),
		}},
		Internal: []model.VarSpec{{
			Name:   "cur",
			Domain: func(i model.DomainInfo) int { return i.Degree },
		}},
		Actions: []model.Action{
			{
				Name: "demote: neighbor dominator with smaller color",
				Guard: func(c *model.Ctx) bool {
					port := c.Internal(VarCur) + 1
					return c.NeighborComm(port, VarS) == Dominator &&
						c.NeighborConst(port, ConstC) < c.Const(ConstC) &&
						c.Comm(VarS) == Dominator
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarS, Dominated)
				},
			},
			{
				Name: "promote: no dominating witness at cur",
				Guard: func(c *model.Ctx) bool {
					port := c.Internal(VarCur) + 1
					return (c.NeighborComm(port, VarS) == Dominated ||
						c.Const(ConstC) < c.NeighborConst(port, ConstC)) &&
						c.Comm(VarS) == Dominated
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarS, Dominator)
					c.SetInternal(VarCur, (c.Internal(VarCur)+1)%c.Deg())
				},
			},
			{
				Name: "scan: dominator advances cur",
				Guard: func(c *model.Ctx) bool {
					return c.Comm(VarS) == Dominator
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

// first is Spec's guard walk in one pass. S.(cur.p) is read first, as
// the demote guard does; C.(cur.p) is read only when S.(cur.p) is
// Dominator, where the demote guard's short circuit reads it (and the
// promote guard's re-reads it).
func first(c *model.Ctx) int {
	port := c.Internal(VarCur) + 1
	own := c.Comm(VarS)
	if c.NeighborComm(port, VarS) == Dominated {
		if own == Dominated {
			return 1
		}
	} else {
		cq, cp := c.NeighborConst(port, ConstC), c.Const(ConstC)
		switch {
		case cq < cp && own == Dominator:
			return 0
		case cp < cq && own == Dominated:
			return 1
		}
	}
	if own == Dominator {
		return 2
	}
	return -1
}

// BaselineSpec returns the classical full-read MIS protocol: a process
// reads all neighbors at every step and
//
//	(S.p=Dominator ∧ ∃q∈Γ.p: S.q=Dominator ∧ C.q≺C.p) → S.p ← dominated
//	(S.p=dominated ∧ ∀q∈Γ.p: S.q=dominated)           → S.p ← Dominator
func BaselineSpec(maxColors int) *model.Spec {
	readAll := func(c *model.Ctx) (states, colors []int) {
		states = c.Scratch(c.Deg())
		colors = c.Scratch(c.Deg())
		for port := 1; port <= c.Deg(); port++ {
			states[port-1] = c.NeighborComm(port, VarS)
			colors[port-1] = c.NeighborConst(port, ConstC)
		}
		return states, colors
	}
	return &model.Spec{
		Name: "MIS-FULLREAD",
		Comm: []model.VarSpec{{
			Name:   "S",
			Domain: model.FixedDomain(2),
		}},
		Const: []model.VarSpec{{
			Name:   "C",
			Domain: model.FixedDomain(maxColors),
		}},
		Actions: []model.Action{
			{
				Name: "demote: smaller-colored dominating neighbor",
				Guard: func(c *model.Ctx) bool {
					if c.Comm(VarS) != Dominator {
						return false
					}
					states, colors := readAll(c)
					found := false
					for i := range states {
						if states[i] == Dominator && colors[i] < c.Const(ConstC) {
							found = true
						}
					}
					return found
				},
				Apply: func(c *model.Ctx) { c.SetComm(VarS, Dominated) },
			},
			{
				Name: "promote: no dominating neighbor",
				Guard: func(c *model.Ctx) bool {
					if c.Comm(VarS) != Dominated {
						return false
					}
					states, _ := readAll(c)
					any := false
					for _, s := range states {
						if s == Dominator {
							any = true
						}
					}
					return !any
				},
				Apply: func(c *model.Ctx) { c.SetComm(VarS, Dominator) },
			},
		},
		Legitimate: legitimate,
	}
}

// NewSystem builds a System for the given spec over a locally identified
// network: colors must be a proper distance-1 coloring with values
// 1..maxColors (1-based, as produced by graph.GreedyLocalColoring, which
// nil selects).
func NewSystem(g *graph.Graph, spec *model.Spec, colors []int) (*model.System, error) {
	if colors == nil {
		colors = graph.GreedyLocalColoring(g)
	}
	if err := graph.ValidateLocalIdentifiers(g, colors); err != nil {
		return nil, fmt.Errorf("mis: %w", err)
	}
	consts := make([][]int, g.N())
	for p := range consts {
		consts[p] = []int{colors[p] - 1}
	}
	return model.NewSystem(g, spec, consts)
}

// InMIS extracts the membership function inMIS.p from a configuration.
func InMIS(cfg *model.Config) []bool {
	out := make([]bool, cfg.N())
	for p := range cfg.N() {
		out[p] = cfg.Comm(p, VarS) == Dominator
	}
	return out
}

// legitimate is both specs' predicate at p: a Dominator has no Dominator
// neighbor of smaller color, and a dominated process has a Dominator
// neighbor. Adjacent processes carry different colors (NewSystem checks
// it, and a churned topology keeps a subset of the base edges), so of
// two adjacent Dominators the larger-colored one fails: over all
// processes the Dominators form an independent set (condition 1) that is
// maximal (condition 2). Stated this way, the predicate at p holds
// whenever p's own frozen-neighborhood orbit is silent.
func legitimate(sys *model.System, cfg *model.Config, p int) bool {
	g := sys.Graph()
	dominator := cfg.Comm(p, VarS) == Dominator
	for port := 1; port <= g.Degree(p); port++ {
		q := g.Neighbor(p, port)
		if cfg.Comm(q, VarS) != Dominator {
			continue
		}
		if !dominator {
			return true
		}
		if sys.Const(q, ConstC) < sys.Const(p, ConstC) {
			return false
		}
	}
	return dominator
}

// DominatorCount returns the size of the candidate independent set.
func DominatorCount(cfg *model.Config) int {
	count := 0
	for p := range cfg.N() {
		if cfg.Comm(p, VarS) == Dominator {
			count++
		}
	}
	return count
}

// RoundBound returns Lemma 4's convergence bound Δ × #C for the system's
// color assignment.
func RoundBound(sys *model.System) int {
	set := map[int]bool{}
	for p := 0; p < sys.N(); p++ {
		set[sys.Const(p, ConstC)] = true
	}
	return sys.Delta() * len(set)
}

// StabilityBound returns Theorem 6's lower bound ⌊(Lmax+1)/2⌋ on the
// number of eventually-1-stable processes, given the longest elementary
// path length Lmax.
func StabilityBound(lmax int) int {
	return (lmax + 1) / 2
}
