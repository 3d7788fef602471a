package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// searchBudget caps the process states one search assigns. The largest
// search of the package, the proof that COLORING has no silent
// illegitimate configuration on the 7-chain, assigns 15 357.
const searchBudget = 1 << 16

// firstSilent returns the first silent configuration of sys that accept
// takes, or nil when there is none: a nil configuration with a nil error
// is a proof by exhaustion on sys's graph. It errors when it would assign
// more than budget process states or an orbit walk fails; it never
// reports a "none" it has not proved.
//
// It is a depth-first backtracking search over per-process states, each
// running in mixed radix over the process's domains (nextState). As soon
// as a process's closed neighborhood is assigned its orbit is decided
// (model.ProcessSilent reads only p's state and its neighbors'
// communication state), and a prefix with a non-silent orbit is pruned.
//
// Processes are assigned in depth-first pre-order from process 0, which
// completes each closed neighborhood soon after its process, so pruning
// fires near the top of the tree. The order is not a tuning knob:
// breadth-first order on the Δ = 4 spider completes no middle process's
// neighborhood until the leaves are assigned, and needs more than 10⁸
// states to find frozen COLORING's witness there instead of 868.
func firstSilent(sys *model.System, accept func(*model.Config) bool, budget int) (*model.Config, error) {
	g := sys.Graph()
	order := preorder(g)
	pos := make([]int, g.N())
	for k, p := range order {
		pos[p] = k
	}
	// ready[k] lists the processes whose closed neighborhood is complete
	// once order[:k+1] is assigned.
	ready := make([][]int, g.N())
	for p := range g.N() {
		last := pos[p]
		for port := 1; port <= g.Degree(p); port++ {
			last = max(last, pos[g.Neighbor(p, port)])
		}
		ready[last] = append(ready[last], p)
	}

	cfg := model.NewZeroConfig(sys)
	nodes := 0
	// assign enumerates the states of order[k] and of everything after
	// it. Each process starts at all zeros and is left there when its
	// states run out, so a later visit starts afresh.
	var assign func(k int) (bool, error)
	assign = func(k int) (bool, error) {
		if k == len(order) {
			return accept(cfg), nil
		}
	states:
		for more := true; more; more = nextState(sys, cfg, order[k]) {
			if nodes++; nodes > budget {
				return false, fmt.Errorf("search exceeded %d process states", budget)
			}
			for _, p := range ready[k] {
				silent, err := model.ProcessSilent(sys, cfg, p)
				if err != nil {
					return false, err
				}
				if !silent {
					continue states
				}
			}
			if found, err := assign(k + 1); found || err != nil {
				return found, err
			}
		}
		return false, nil
	}
	found, err := assign(0)
	if !found {
		return nil, err
	}
	return cfg, nil
}

// preorder lists the processes in depth-first pre-order from process 0,
// taking ports in increasing order (and restarting from the smallest
// unvisited process on a disconnected graph).
func preorder(g *graph.Graph) []int {
	order := make([]int, 0, g.N())
	seen := make([]bool, g.N())
	var visit func(p int)
	visit = func(p int) {
		seen[p] = true
		order = append(order, p)
		for port := 1; port <= g.Degree(p); port++ {
			if q := g.Neighbor(p, port); !seen[q] {
				visit(q)
			}
		}
	}
	for p := range seen {
		if !seen[p] {
			visit(p)
		}
	}
	return order
}

// nextState advances p's state in cfg by one in mixed radix over its
// domains, communication variables the low digits and internal ones the
// high, and reports false when it wraps around to all zeros.
func nextState(sys *model.System, cfg *model.Config, p int) bool {
	if nextComm(sys, cfg, p) {
		return true
	}
	for v := range sys.InternalWidth() {
		if x := cfg.Internal(p, v) + 1; x < sys.InternalDomain(p, v) {
			cfg.SetInternal(p, v, x)
			return true
		}
		cfg.SetInternal(p, v, 0)
	}
	return false
}

// nextComm is nextState over p's communication row alone.
func nextComm(sys *model.System, cfg *model.Config, p int) bool {
	for v := range sys.CommWidth() {
		if x := cfg.Comm(p, v) + 1; x < sys.CommDomain(p, v) {
			cfg.SetComm(p, v, x)
			return true
		}
		cfg.SetComm(p, v, 0)
	}
	return false
}
