// Package transformer implements the generalization raised in the
// paper's concluding remarks (Section 6): "the possibility of designing
// an efficient general transformer for protocols matching the local
// checking paradigm remains an open question". The engine's -xform
// protocol families apply it; experiment E13, sssim and
// examples/spanningtree run them.
//
// Transform converts ANY protocol of the model — in particular the
// full-read local-checking baselines — into a 1-efficient protocol:
//
//   - every process gains a cur pointer plus an internal *cache* of the
//     communication variables (and constants) of each neighbor;
//   - a refresh action — always enabled, lowest priority — reads the one
//     neighbor behind cur into the cache and advances cur (this is the
//     only action that communicates: the transformed protocol reads at
//     most one neighbor per step by construction);
//   - every original action runs against the cached view, a model.View
//     that Ctx.GuardThrough and Ctx.ApplyThrough install around its guard
//     and statement: their neighbor reads see the cache instead of the
//     network, so they perform no communication at all. A back port,
//     which the cache does not hold, is read through the view the cache
//     was installed over: the engine's graph, or under the reference
//     semantics (internal/model/ref) the reference's own adjacency.
//
// The transformation preserves silence semantics: in a silent
// configuration the refresh action keeps cycling (exactly like the
// Dominators of Protocol MIS) but only rewrites internal state, and any
// enabled original action still breaks silence — now triggered by the
// cache, which a lone-process computation makes accurate within δ.p
// steps.
//
// What the transformer does NOT automatically preserve is
// self-stabilization: original actions may fire on stale cached
// information. Experiment E13 measures, per protocol, whether the
// transformed baseline still converges — the empirical side of the
// paper's open question. (The paper's own COLORING/MIS/MATCHING are
// exactly hand-tuned versions of this scheme, with guards arranged so
// staleness is harmless.)
package transformer

import (
	"fmt"

	"repro/internal/model"
)

// Transform returns the 1-efficient cached-view version of orig for
// networks of maximum degree at most delta. The cache is dimensioned for
// delta ports; processes of smaller degree leave the tail unused. The
// result keeps orig's communication variables and constants, and with
// them orig's per-process Spec.Legitimate.
func Transform(orig *model.Spec, delta int) (*model.Spec, error) {
	if err := orig.Validate(); err != nil {
		return nil, fmt.Errorf("transformer: %w", err)
	}
	if delta < 1 {
		return nil, fmt.Errorf("transformer: delta must be >= 1, got %d", delta)
	}

	nComm := len(orig.Comm)
	nConst := len(orig.Const)
	nOrigInternal := len(orig.Internal)
	perPort := nComm + nConst

	// Internal layout: [orig internals][cur][cache port1 .. port delta],
	// each port block holding the comm vars then the const vars.
	curIdx := nOrigInternal
	cache := cacheView{base: curIdx + 1, perPort: perPort, nComm: nComm}
	var cached model.View = cache // converted once: a view per call would allocate

	internal := make([]model.VarSpec, 0, cache.base+delta*perPort)
	internal = append(internal, orig.Internal...)
	internal = append(internal, model.VarSpec{
		Name:   "xcur",
		Domain: func(i model.DomainInfo) int { return i.Degree },
	})
	for port := 1; port <= delta; port++ {
		for v := 0; v < nComm; v++ {
			spec := orig.Comm[v]
			internal = append(internal, model.VarSpec{
				Name: fmt.Sprintf("xcache%d_%s", port, spec.Name),
				// Upper-bound the neighbor's domain by evaluating the
				// original domain at degree Δ (degree-dependent domains
				// in this model grow with the degree).
				Domain: capDomain(spec.Domain),
			})
		}
		for v := 0; v < nConst; v++ {
			spec := orig.Const[v]
			internal = append(internal, model.VarSpec{
				Name:   fmt.Sprintf("xcache%d_%s", port, spec.Name),
				Domain: capDomain(spec.Domain),
			})
		}
	}

	// Priority order:
	//   1. refresh-if-stale: the only communicating action; compares the
	//      cur neighbor's real state against the cache (one neighbor
	//      read) and refreshes+advances on mismatch;
	//   2. the original actions, run against the (now accurate-at-cur)
	//      cached view — purely local;
	//   3. advance: rotate cur so the scan never stops (the perpetual
	//      scan is what separates this construction from the frozen
	//      variants Theorems 1-2 kill).
	staleAtCur := func(c *model.Ctx) bool {
		port := c.Internal(curIdx) + 1
		for v := 0; v < nComm; v++ {
			if c.Internal(cache.commAt(port, v)) != c.NeighborComm(port, v) {
				return true
			}
		}
		for v := 0; v < nConst; v++ {
			if c.Internal(cache.constAt(port, v)) != c.NeighborConst(port, v) {
				return true
			}
		}
		return false
	}
	actions := make([]model.Action, 0, len(orig.Actions)+2)
	actions = append(actions, model.Action{
		Name:  "refresh: cache stale at cur",
		Guard: staleAtCur,
		Apply: func(c *model.Ctx) {
			port := c.Internal(curIdx) + 1
			for v := 0; v < nComm; v++ {
				c.SetInternal(cache.commAt(port, v), c.NeighborComm(port, v))
			}
			for v := 0; v < nConst; v++ {
				c.SetInternal(cache.constAt(port, v), c.NeighborConst(port, v))
			}
			c.SetInternal(curIdx, (c.Internal(curIdx)+1)%c.Deg())
		},
	})
	for i := range orig.Actions {
		oa := orig.Actions[i]
		actions = append(actions, model.Action{
			Name:       "cached: " + oa.Name,
			Guard:      func(c *model.Ctx) bool { return c.GuardThrough(cached, oa.Guard) },
			Apply:      func(c *model.Ctx) { c.ApplyThrough(cached, oa.Apply) },
			Randomized: oa.Randomized,
		})
	}
	actions = append(actions, model.Action{
		Name:  "advance: rotate cur",
		Guard: func(c *model.Ctx) bool { return true },
		Apply: func(c *model.Ctx) {
			c.SetInternal(curIdx, (c.Internal(curIdx)+1)%c.Deg())
		},
	})

	return &model.Spec{
		Name:     orig.Name + "-XFORM",
		Comm:     orig.Comm,
		Const:    orig.Const,
		Internal: internal,
		Actions:  actions,
		// A per-process predicate reads communication variables and
		// constants only, which keep their indices here.
		Legitimate: orig.Legitimate,
	}, nil
}

// cacheView is the view the original actions run against: a neighbor's
// communication variables and constants come from the process's cache
// variables, local reads that record no communication, and BackPort,
// which the cache does not hold, from the view it was installed over.
// The cache of port holds the comm variables, then the constants, from
// internal variable base+(port-1)·perPort on.
type cacheView struct{ base, perPort, nComm int }

func (v cacheView) commAt(port, i int) int  { return v.base + (port-1)*v.perPort + i }
func (v cacheView) constAt(port, i int) int { return v.commAt(port, v.nComm+i) }

func (v cacheView) NeighborComm(c *model.Ctx, port, i int) int {
	return c.Internal(v.commAt(port, i))
}

func (v cacheView) NeighborConst(c *model.Ctx, port, i int) int {
	return c.Internal(v.constAt(port, i))
}

func (cacheView) BackPort(c *model.Ctx, port int) int { return c.OuterBackPort(port) }

func capDomain(domain func(model.DomainInfo) int) func(model.DomainInfo) int {
	return func(i model.DomainInfo) int {
		return domain(model.DomainInfo{N: i.N, Delta: i.Delta, Degree: i.Delta})
	}
}
