// Package matching implements Protocol MATCHING (paper Figure 10): a
// 1-efficient deterministic self-stabilizing maximal-matching protocol
// for locally identified networks (Theorem 7), stabilizing within
// (Δ+1)n+2 rounds (Lemma 9) and ♦-(2⌈m/(2Δ-1)⌉, 1)-stable (Theorem 8);
// plus a full-read baseline in the style of Manne, Mjelde, Pilard &
// Tixeuil (SIROCCO 2007), the protocol Figure 10 derives from.
//
// Encodings: M.p ∈ {true,false} is 1/0; PR.p ∈ {0..δ.p} keeps the
// paper's meaning (0 = free, k > 0 = port k); the color constant C.p is
// stored 0-based; cur is stored 0-based (port = cur+1); ≺ is integer <.
package matching

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// Communication-variable, constant and internal-variable indices.
const (
	// VarM is the Boolean married flag M.p.
	VarM = 0
	// VarPR is the marriage pointer PR.p ∈ {0..δ.p}.
	VarPR = 1
	// ConstC is the communication constant C.p (the local identifier).
	ConstC = 0
	// VarCur is the internal round-robin pointer cur.p.
	VarCur = 0
)

// prMarried evaluates the paper's predicate
// PRmarried(p) ≡ (PR.p = cur.p ∧ PR.(cur.p) = p), reading only the
// neighbor behind cur.p.
func prMarried(c *model.Ctx) bool {
	curPort := c.Internal(VarCur) + 1
	return c.Comm(VarPR) == curPort &&
		c.NeighborComm(curPort, VarPR) == c.BackPort(curPort)
}

// Spec returns Protocol MATCHING for any process p (Figure 10), with the
// six actions in decreasing priority order:
//
//	(PR.p ∉ {0, cur.p})                             → PR.p ← cur.p
//	(M.p ≠ PRmarried(p))                            → M.p ← PRmarried(p)
//	(PR.p = 0 ∧ PR.(cur.p) = p)                     → PR.p ← cur.p
//	(PR.p = cur.p ∧ PR.(cur.p) ≠ p ∧
//	     (M.(cur.p) ∨ C.(cur.p) ≺ C.p))             → PR.p ← 0
//	(PR.p = 0 ∧ PR.(cur.p) = 0 ∧ C.p ≺ C.(cur.p) ∧ ¬M.(cur.p))
//	                                                → PR.p ← cur.p
//	(PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨ C.(cur.p) ≺ C.p ∨ M.(cur.p)))
//	                                                → cur.p ← (cur.p mod δ.p)+1
func Spec(maxColors int) *model.Spec {
	return &model.Spec{
		Name: "MATCHING",
		Comm: []model.VarSpec{
			{Name: "M", Domain: model.FixedDomain(2)},
			{Name: "PR", Domain: func(i model.DomainInfo) int { return i.Degree + 1 }},
		},
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
				Name: "align: PR must be 0 or cur",
				Guard: func(c *model.Ctx) bool {
					pr := c.Comm(VarPR)
					return pr != 0 && pr != c.Internal(VarCur)+1
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarPR, c.Internal(VarCur)+1)
				},
			},
			{
				Name: "publish: refresh married flag",
				Guard: func(c *model.Ctx) bool {
					married := 0
					if prMarried(c) {
						married = 1
					}
					return c.Comm(VarM) != married
				},
				Apply: func(c *model.Ctx) {
					married := 0
					if prMarried(c) {
						married = 1
					}
					c.SetComm(VarM, married)
				},
			},
			{
				Name: "accept: marriage proposal from cur",
				Guard: func(c *model.Ctx) bool {
					curPort := c.Internal(VarCur) + 1
					return c.Comm(VarPR) == 0 &&
						c.NeighborComm(curPort, VarPR) == c.BackPort(curPort)
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarPR, c.Internal(VarCur)+1)
				},
			},
			{
				Name: "abandon: cur is taken or lower-colored",
				Guard: func(c *model.Ctx) bool {
					curPort := c.Internal(VarCur) + 1
					return c.Comm(VarPR) == curPort &&
						c.NeighborComm(curPort, VarPR) != c.BackPort(curPort) &&
						(c.NeighborComm(curPort, VarM) == 1 ||
							c.NeighborConst(curPort, ConstC) < c.Const(ConstC))
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarPR, 0)
				},
			},
			{
				Name: "propose: free higher-colored unmarried cur",
				Guard: func(c *model.Ctx) bool {
					curPort := c.Internal(VarCur) + 1
					return c.Comm(VarPR) == 0 &&
						c.NeighborComm(curPort, VarPR) == 0 &&
						c.Const(ConstC) < c.NeighborConst(curPort, ConstC) &&
						c.NeighborComm(curPort, VarM) == 0
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarPR, c.Internal(VarCur)+1)
				},
			},
			{
				Name: "seek: advance cur past unusable neighbor",
				Guard: func(c *model.Ctx) bool {
					curPort := c.Internal(VarCur) + 1
					return c.Comm(VarPR) == 0 &&
						(c.NeighborComm(curPort, VarPR) != 0 ||
							c.NeighborConst(curPort, ConstC) < c.Const(ConstC) ||
							c.NeighborComm(curPort, VarM) == 1)
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

// first is Spec's six guards in one pass, folded into one case analysis
// on PR.p. Each neighbor variable and the back port are read at most
// once, in the order the guards first read them: PR.(cur.p) and the back
// port, then M.(cur.p) before C.(cur.p) when p proposes to cur.p (the
// abandon guard), C.(cur.p) before M.(cur.p) when p is free (the propose
// and seek guards), each only where a guard's short circuit reaches it.
func first(c *model.Ctx) int {
	cur := c.Internal(VarCur) + 1
	m, cp := c.Comm(VarM), c.Const(ConstC)
	switch pr := c.Comm(VarPR); pr {
	case 0:
		// PRmarried(p) is false without a read: publish needs M.p = 1.
		if m != 0 {
			return 1
		}
		q := c.NeighborComm(cur, VarPR)
		if q == c.BackPort(cur) {
			return 2 // accept
		}
		if q != 0 {
			return 5 // seek: cur.p is taken
		}
		cq := c.NeighborConst(cur, ConstC)
		switch {
		case cp < cq:
			if c.NeighborComm(cur, VarM) == 0 {
				return 4 // propose
			}
			return 5
		case cq < cp:
			return 5
		}
		if c.NeighborComm(cur, VarM) == 1 {
			return 5
		}
		return -1
	case cur:
		married := c.NeighborComm(cur, VarPR) == c.BackPort(cur)
		if married != (m == 1) {
			return 1 // publish
		}
		if !married && (c.NeighborComm(cur, VarM) == 1 || c.NeighborConst(cur, ConstC) < cp) {
			return 3 // abandon
		}
		return -1
	default:
		return 0 // align
	}
}

// BaselineSpec returns the full-read maximal-matching protocol Figure 10
// derives from (Manne et al. 2007, with local colors in place of global
// identifiers): every evaluation reads all neighbors.
//
//	update:  (M.p ≠ married(p))                       → M.p ← married(p)
//	marry:   (PR.p = 0 ∧ ∃q: PR.q = p)                → PR.p ← first such q
//	seduce:  (PR.p = 0 ∧ ∀q: PR.q ≠ p ∧
//	          ∃q: PR.q = 0 ∧ ¬M.q ∧ C.p ≺ C.q)        → PR.p ← max-color such q
//	abandon: (PR.p = q ≠ 0 ∧ PR.q ≠ p ∧ (M.q ∨ C.q ≺ C.p)) → PR.p ← 0
//
// where married(p) ≡ PR.p ≠ 0 ∧ PR.(PR.p) = p. The first guard reads
// all neighbors; later bodies read only what they use. Every evaluation
// runs the first guard before any other body, and a read counts once per
// (neighbor, variable) in an evaluation, so what an evaluation reads is
// the full read either way.
func BaselineSpec(maxColors int) *model.Spec {
	// proposes reports whether the neighbor behind port points back at p.
	proposes := func(c *model.Ctx, port int) bool {
		return c.NeighborComm(port, VarPR) == c.BackPort(port)
	}
	married := func(c *model.Ctx) int {
		if pr := c.Comm(VarPR); pr != 0 && proposes(c, pr) {
			return 1
		}
		return 0
	}
	// candidate reports whether the neighbor behind port is free, unmarried
	// and higher-colored than p: one seduce may court.
	candidate := func(c *model.Ctx, port int) bool {
		return c.NeighborComm(port, VarPR) == 0 && c.NeighborComm(port, VarM) == 0 &&
			c.Const(ConstC) < c.NeighborConst(port, ConstC)
	}
	return &model.Spec{
		Name: "MATCHING-FULLREAD",
		Comm: []model.VarSpec{
			{Name: "M", Domain: model.FixedDomain(2)},
			{Name: "PR", Domain: func(i model.DomainInfo) int { return i.Degree + 1 }},
		},
		Const: []model.VarSpec{{
			Name:   "C",
			Domain: model.FixedDomain(maxColors),
		}},
		Actions: []model.Action{
			{
				Name: "update married flag",
				Guard: func(c *model.Ctx) bool {
					for port := 1; port <= c.Deg(); port++ {
						c.NeighborComm(port, VarPR)
						c.NeighborComm(port, VarM)
						c.NeighborConst(port, ConstC)
						c.BackPort(port)
					}
					return c.Comm(VarM) != married(c)
				},
				Apply: func(c *model.Ctx) { c.SetComm(VarM, married(c)) },
			},
			{
				Name: "marry a proposer",
				Guard: func(c *model.Ctx) bool {
					if c.Comm(VarPR) != 0 {
						return false
					}
					for port := 1; port <= c.Deg(); port++ {
						if proposes(c, port) {
							return true
						}
					}
					return false
				},
				Apply: func(c *model.Ctx) {
					for port := 1; port <= c.Deg(); port++ {
						if proposes(c, port) {
							c.SetComm(VarPR, port)
							return
						}
					}
				},
			},
			{
				Name: "seduce best free candidate",
				Guard: func(c *model.Ctx) bool {
					if c.Comm(VarPR) != 0 {
						return false
					}
					for port := 1; port <= c.Deg(); port++ {
						if proposes(c, port) {
							return false // marry has priority anyway
						}
					}
					for port := 1; port <= c.Deg(); port++ {
						if candidate(c, port) {
							return true
						}
					}
					return false
				},
				Apply: func(c *model.Ctx) {
					best, bestColor := 0, -1
					for port := 1; port <= c.Deg(); port++ {
						if candidate(c, port) && c.NeighborConst(port, ConstC) > bestColor {
							best, bestColor = port, c.NeighborConst(port, ConstC)
						}
					}
					c.SetComm(VarPR, best)
				},
			},
			{
				Name: "abandon dead proposal",
				Guard: func(c *model.Ctx) bool {
					pr := c.Comm(VarPR)
					return pr != 0 && !proposes(c, pr) &&
						(c.NeighborComm(pr, VarM) == 1 || c.NeighborConst(pr, ConstC) < c.Const(ConstC))
				},
				Apply: func(c *model.Ctx) { c.SetComm(VarPR, 0) },
			},
		},
		// Silence leaves the baseline's flags as exact as Figure 10's: with
		// update disabled M is exact, with marry and abandon disabled an
		// unmarried process is free (a dangling proposal would start a
		// chain of rising colors), and with seduce disabled no two free
		// processes are adjacent.
		Legitimate: legitimate,
	}
}

// NewSystem builds a System for the given spec over a locally identified
// network: colors must be a proper distance-1 coloring with values
// 1..maxColors (1-based; nil selects graph.GreedyLocalColoring).
func NewSystem(g *graph.Graph, spec *model.Spec, colors []int) (*model.System, error) {
	if colors == nil {
		colors = graph.GreedyLocalColoring(g)
	}
	if err := graph.ValidateLocalIdentifiers(g, colors); err != nil {
		return nil, fmt.Errorf("matching: %w", err)
	}
	consts := make([][]int, g.N())
	for p := range consts {
		consts[p] = []int{colors[p] - 1}
	}
	return model.NewSystem(g, spec, consts)
}

// MatchedEdges returns the edge set {{p,q}: PR.p and PR.q point at each
// other}, each edge once with p < q.
func MatchedEdges(sys *model.System, cfg *model.Config) [][2]int {
	g := sys.Graph()
	var out [][2]int
	for p := 0; p < g.N(); p++ {
		if q := partner(g, cfg, p); p < q {
			out = append(out, [2]int{p, q})
		}
	}
	return out
}

// partner returns the process p is married to, -1 when p is unmarried:
// PR.p and PR.q point at each other. On dynamic topologies an isolated
// process can hold a dangling pointer (domains never shrink below
// {0,1}, see model.ApplyTopology); a pointer beyond the live degree
// addresses no port and is free.
func partner(g *graph.Graph, cfg *model.Config, p int) int {
	pr := cfg.Comm(p, VarPR)
	if pr == 0 || pr > g.Degree(p) {
		return -1
	}
	if q := g.Neighbor(p, pr); cfg.Comm(q, VarPR) == g.BackPort(p, pr) {
		return q
	}
	return -1
}

// MarriedCount returns the number of processes incident to a matched
// edge.
func MarriedCount(sys *model.System, cfg *model.Config) int {
	return 2 * len(MatchedEdges(sys, cfg))
}

// legitimate is both specs' predicate at p: M.p says whether p is
// married, an unmarried p is free (PR.p = 0, Lemma 5), and every
// neighbor of a free p has M.q = 1, which q's own predicate ties to q's
// marriage. A process points at one neighbor at most, so over all
// processes the married pairs form a matching, no two free processes are
// adjacent (maximality), and every flag is exact.
func legitimate(sys *model.System, cfg *model.Config, p int) bool {
	g := sys.Graph()
	married := partner(g, cfg, p) >= 0
	if married != (cfg.Comm(p, VarM) == 1) {
		return false
	}
	if married {
		return true
	}
	if cfg.Comm(p, VarPR) != 0 {
		return false
	}
	for port := 1; port <= g.Degree(p); port++ {
		if cfg.Comm(g.Neighbor(p, port), VarM) != 1 {
			return false
		}
	}
	return true
}

// RoundBound returns Lemma 9's convergence bound (Δ+1)n + 2.
func RoundBound(sys *model.System) int {
	return (sys.Delta()+1)*sys.N() + 2
}

// StabilityBound returns Theorem 8's lower bound 2⌈m/(2Δ-1)⌉ on the
// number of eventually-matched (hence 1-stable) processes.
func StabilityBound(m, delta int) int {
	d := 2*delta - 1
	return 2 * ((m + d - 1) / d)
}
