// Package bfstree implements a classical silent self-stabilizing BFS
// spanning-tree protocol for rooted networks, in the local-checking
// style of Dolev, Israeli & Moran — the paradigm the paper's
// introduction cites ([3,4]: "self-stabilization by local checking") and
// whose communication cost ("every participant has to communicate with
// every other neighbor repetitively") the paper sets out to beat.
//
// The protocol is the repository's fourth problem: it is full-read by
// nature (a process needs the minimum distance over all neighbors), so
// it is the natural case study for the local-checking transformer of
// internal/transformer (the generalization asked for in the paper's
// concluding remarks). Experiment E13 measures the transformed variant.
//
// Variables (per process p):
//
//	D.p ∈ {0..n}   communication: candidate BFS distance (n = clamp)
//	P.p ∈ {0..δ.p} communication: parent port (0 at the root)
//	R.p ∈ {0,1}    constant: 1 iff p is the root
//
// Actions:
//
//	(R.p ∧ (D.p ≠ 0 ∨ P.p ≠ 0))                  → D.p ← 0; P.p ← 0
//	(¬R.p ∧ (D.p ≠ best+1 ∨ D at P.p ≠ best))    → D.p ← best+1; P.p ← argbest
//
// where best = min over neighbors q of D.q (clamped to n-1+1 = n).
//
// Spec.First decides in one pass: it reads D.q of each neighbor once,
// in port order as the relax guard does, and takes best, the first port
// that holds it (argbest) and D at P.p from the same scan. It hands best
// and argbest to the relax statement (model.Ctx.Keep), which otherwise
// scans the neighbors a second time to find them; the statement's reads
// repeat the guard's, so the read sets and bit counts are the same
// either way.
package bfstree

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// Variable indices.
const (
	// VarD is the distance communication variable.
	VarD = 0
	// VarP is the parent-port communication variable.
	VarP = 1
	// ConstRoot is the root-flag constant.
	ConstRoot = 0
)

// Spec returns the full-read BFS spanning-tree protocol.
func Spec() *model.Spec {
	return &model.Spec{
		Name: "BFSTREE",
		Comm: []model.VarSpec{
			{Name: "D", Domain: func(i model.DomainInfo) int { return i.N + 1 }},
			{Name: "P", Domain: func(i model.DomainInfo) int { return i.Degree + 1 }},
		},
		Const: []model.VarSpec{
			{Name: "R", Domain: model.FixedDomain(2)},
		},
		Actions: []model.Action{
			{
				Name: "root: anchor at distance 0",
				Guard: func(c *model.Ctx) bool {
					return c.Const(ConstRoot) == 1 && (c.Comm(VarD) != 0 || c.Comm(VarP) != 0)
				},
				Apply: func(c *model.Ctx) {
					c.SetComm(VarD, 0)
					c.SetComm(VarP, 0)
				},
			},
			{
				Name: "relax: adopt closest neighbor as parent",
				Guard: func(c *model.Ctx) bool {
					if c.Const(ConstRoot) == 1 {
						return false
					}
					best, _ := readAll(c)
					want := clampInc(c, best)
					if c.Comm(VarD) != want {
						return true
					}
					pp := c.Comm(VarP)
					if pp == 0 {
						return true
					}
					return c.NeighborComm(pp, VarD) != best
				},
				Apply: func(c *model.Ctx) {
					best, bestPort, ok := c.Kept()
					if !ok {
						best, bestPort = readAll(c)
					}
					c.SetComm(VarD, clampInc(c, best))
					c.SetComm(VarP, bestPort)
				},
			},
		},
		First:      first,
		Legitimate: legitimate,
	}
}

// first is Spec's guard walk in one pass. The root reads no neighbor. Any
// other process reads D.q behind every port once, in port order, and
// keeps the minimum, the first port that holds it and D behind P.p; the
// relax guard's re-read of D at P.p is one of the scan's reads. When relax
// fires, the minimum and its port go to the statement.
func first(c *model.Ctx) int {
	own, pp := c.Comm(VarD), c.Comm(VarP)
	if c.Const(ConstRoot) == 1 {
		if own != 0 || pp != 0 {
			return 0
		}
		return -1
	}
	best, bestPort, atParent := c.NeighborComm(1, VarD), 1, -1
	if pp == 1 {
		atParent = best
	}
	for port := 2; port <= c.Deg(); port++ {
		d := c.NeighborComm(port, VarD)
		if d < best {
			best, bestPort = d, port
		}
		if port == pp {
			atParent = d
		}
	}
	if own == clampInc(c, best) && atParent == best {
		return -1
	}
	c.Keep(best, bestPort)
	return 1
}

// readAll reads D.q behind every port, in port order, and returns the
// minimum and the first port that holds it.
func readAll(c *model.Ctx) (best, bestPort int) {
	best, bestPort = -1, 0
	for port := 1; port <= c.Deg(); port++ {
		d := c.NeighborComm(port, VarD)
		if best < 0 || d < best {
			best, bestPort = d, port
		}
	}
	return best, bestPort
}

// clampInc is best+1 clamped to the top of D's domain, n.
func clampInc(c *model.Ctx, best int) int {
	d := best + 1
	if limit := c.N(); d > limit {
		d = limit
	}
	return d
}

// NewSystem builds a rooted system: root is the distinguished process.
func NewSystem(g *graph.Graph, spec *model.Spec, root int) (*model.System, error) {
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("bfstree: root %d out of range", root)
	}
	consts := make([][]int, g.N())
	for p := range consts {
		flag := 0
		if p == root {
			flag = 1
		}
		consts[p] = []int{flag}
	}
	return model.NewSystem(g, spec, consts)
}

// legitimate is Spec's predicate at p: the root has D = P = 0, and any
// other process has D.p = 1 + min D.q over its neighbors q, with P.p
// naming a neighbor at D.p − 1. On a connected network with one root the
// conjunction pins every D to the hop distance from the root (a chain of
// parents descends one step at a time and ends only at the root, and no
// neighbor sits lower than the parent), so the parent pointers form a
// BFS tree.
func legitimate(sys *model.System, cfg *model.Config, p int) bool {
	g := sys.Graph()
	d, pp := cfg.Comm(p, VarD), cfg.Comm(p, VarP)
	if sys.Const(p, ConstRoot) == 1 {
		return d == 0 && pp == 0
	}
	if pp == 0 || pp > g.Degree(p) || cfg.Comm(g.Neighbor(p, pp), VarD) != d-1 {
		return false
	}
	for port := 1; port <= g.Degree(p); port++ {
		if cfg.Comm(g.Neighbor(p, port), VarD) < d-1 {
			return false
		}
	}
	return true
}

// Depth returns the maximum D value (the tree height) in cfg.
func Depth(cfg *model.Config) int {
	d := 0
	for p := range cfg.N() {
		if cfg.Comm(p, VarD) > d {
			d = cfg.Comm(p, VarD)
		}
	}
	return d
}
