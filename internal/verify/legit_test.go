package verify

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/protocols/bfstree"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/sched"
)

// The oracles below are the protocols' legitimacy predicates as they were
// first written, one loop over the whole configuration each. The
// per-process predicates the specs carry (Spec.Legitimate, conjoined by
// model.Legitimate) are held to them.

// coloringOracle is the vertex coloring: for every process p and every
// neighbor q, C.p ≠ C.q.
func coloringOracle(sys *model.System, cfg *model.Config) bool {
	g := sys.Graph()
	for p := 0; p < g.N(); p++ {
		for port := 1; port <= g.Degree(p); port++ {
			if cfg.Comm(p, coloring.VarC) == cfg.Comm(g.Neighbor(p, port), coloring.VarC) {
				return false
			}
		}
	}
	return true
}

// misOracle is the MIS: the Dominators form an independent set that is
// maximal, isolated processes aside.
func misOracle(sys *model.System, cfg *model.Config) bool {
	g := sys.Graph()
	for p := 0; p < g.N(); p++ {
		if g.Degree(p) == 0 {
			continue
		}
		if cfg.Comm(p, mis.VarS) == mis.Dominator {
			for port := 1; port <= g.Degree(p); port++ {
				if cfg.Comm(g.Neighbor(p, port), mis.VarS) == mis.Dominator {
					return false
				}
			}
		} else {
			witness := false
			for port := 1; port <= g.Degree(p); port++ {
				if cfg.Comm(g.Neighbor(p, port), mis.VarS) == mis.Dominator {
					witness = true
					break
				}
			}
			if !witness {
				return false
			}
		}
	}
	return true
}

// matchingOracle is MATCHING's predicate: the matched-edge set is a
// maximal matching and all flags are consistent: every process is either
// married or free (Lemma 5), M.p reflects marriage, and no two free
// neighbors remain, isolated processes aside.
func matchingOracle(sys *model.System, cfg *model.Config) bool {
	g := sys.Graph()
	matchedWith := make([]int, g.N()) // 0 = unmarried, else neighbor+1
	for _, e := range matching.MatchedEdges(sys, cfg) {
		if matchedWith[e[0]] != 0 || matchedWith[e[1]] != 0 {
			return false // some process in two matched edges
		}
		matchedWith[e[0]] = e[1] + 1
		matchedWith[e[1]] = e[0] + 1
	}
	for p := 0; p < g.N(); p++ {
		if g.Degree(p) == 0 {
			continue
		}
		pr := cfg.Comm(p, matching.VarPR)
		married := matchedWith[p] != 0
		if married != (cfg.Comm(p, matching.VarM) == 1) {
			return false // stale married flag
		}
		if !married && pr != 0 {
			return false // neither free nor married (Lemma 5)
		}
		if !married {
			for port := 1; port <= g.Degree(p); port++ {
				if matchedWith[g.Neighbor(p, port)] == 0 {
					return false // two free neighbors: not maximal
				}
			}
		}
	}
	return true
}

// maximalMatching is the graph-theoretic predicate on the matched edges
// alone, flags ignored: MATCHING-FULLREAD's predicate as it was first
// written.
func maximalMatching(sys *model.System, cfg *model.Config) bool {
	g := sys.Graph()
	matched := make([]bool, g.N())
	for _, e := range matching.MatchedEdges(sys, cfg) {
		if matched[e[0]] || matched[e[1]] {
			return false
		}
		matched[e[0]] = true
		matched[e[1]] = true
	}
	for _, e := range g.Edges() {
		if !matched[e[0]] && !matched[e[1]] {
			return false
		}
	}
	return true
}

// bfsTreeOracle is the BFS tree of the system's root: D.p equals the
// true hop distance and every non-root parent pointer designates a
// neighbor one hop closer to the root.
func bfsTreeOracle(sys *model.System, cfg *model.Config) bool {
	g := sys.Graph()
	root := -1
	for p := 0; p < g.N(); p++ {
		if sys.Const(p, bfstree.ConstRoot) == 1 {
			root = p
			break
		}
	}
	if root < 0 {
		return false
	}
	dist := g.BFS(root)
	for p := 0; p < g.N(); p++ {
		if cfg.Comm(p, bfstree.VarD) != dist[p] {
			return false
		}
		pp := cfg.Comm(p, bfstree.VarP)
		if p == root {
			if pp != 0 {
				return false
			}
			continue
		}
		if pp == 0 {
			return false
		}
		if dist[g.Neighbor(p, pp)] != dist[p]-1 {
			return false
		}
	}
	return true
}

// nextCommAssignment advances cfg's communication configuration by one in
// mixed radix, process 0's row the lowest digits, and reports false when
// it wraps around to all zeros.
func nextCommAssignment(sys *model.System, cfg *model.Config) bool {
	for p := range sys.N() {
		if nextComm(sys, cfg, p) {
			return true
		}
	}
	return false
}

// TestLegitimateMatchesOracle holds model.Legitimate to each protocol's
// whole-configuration oracle on every communication assignment of five
// small networks.
func TestLegitimateMatchesOracle(t *testing.T) {
	t.Parallel()
	graphs := []*graph.Graph{graph.Path(4), graph.Cycle(4), graph.Cycle(5), graph.Star(4), graph.Path(5)}
	for _, tc := range []struct {
		family string
		oracle func(*model.System, *model.Config) bool
	}{
		{engine.FamColoring, coloringOracle},
		{engine.FamMIS, misOracle},
		{engine.FamMatching, matchingOracle},
		{engine.FamBFSTree, bfsTreeOracle},
	} {
		for _, g := range graphs {
			sys := mustBuild(t, g, tc.family)
			cfg := model.NewZeroConfig(sys)
			legit := 0
			for more := true; more; more = nextCommAssignment(sys, cfg) {
				got := model.Legitimate(sys, cfg)
				if got != tc.oracle(sys, cfg) {
					t.Fatalf("%s on %s: model.Legitimate = %v, the oracle says otherwise, at %v",
						tc.family, g.Name(), got, commOf(sys, cfg))
				}
				if got {
					legit++
				}
			}
			if legit == 0 {
				t.Fatalf("%s on %s: no legitimate configuration", tc.family, g.Name())
			}
		}
	}
}

// commOf lists cfg's communication rows, for a failure message.
func commOf(sys *model.System, cfg *model.Config) [][]int {
	out := make([][]int, sys.N())
	for p := range out {
		for v := range sys.CommWidth() {
			out[p] = append(out[p], cfg.Comm(p, v))
		}
	}
	return out
}

// TestBaselineMatchingSilenceIsMaximal holds MATCHING-FULLREAD, whose
// predicate is MATCHING's, to its first one, maximalMatching, on every
// silent configuration of nine small networks: silence makes its flags
// exact, so the two agree there.
func TestBaselineMatchingSilenceIsMaximal(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(4), graph.Cycle(4), graph.Cycle(5), graph.Star(4), graph.Path(5),
		graph.Cycle(6), graph.Path(6), graph.TheoremOneChain(), graph.TheoremOneSpider(2),
	}
	for _, g := range graphs {
		sys := mustBuild(t, g, engine.FamMatchingBaseline)
		silent := 0
		search(t, sys, func(cfg *model.Config) bool {
			silent++
			if got := model.Legitimate(sys, cfg); got != maximalMatching(sys, cfg) {
				t.Fatalf("on %s: model.Legitimate = %v, maximalMatching says otherwise, at %v", g.Name(), got, commOf(sys, cfg))
			}
			return false
		})
		if silent == 0 {
			t.Fatalf("on %s: no silent configuration", g.Name())
		}
	}
}

// TestIsolatedProcessOutsidePredicate pins the degree-0 exemption, which
// model.Legitimate states once for every family: on path-3 with process 2
// crashed, on every communication assignment, the predicate is the
// per-process one at 0 and 1 alone. Wherever the per-process predicate
// can fail at a process with no neighbor (every family but the colorings:
// a color conflicts only across an edge), some assignment fails it at the
// isolated process alone, which the degree-0 rule keeps disabled, and
// that configuration is legitimate. For BFS tree this is the verdict the
// exemption moved: the whole-network oracle wants a hop distance from the
// root at every process, and an isolated one has none.
func TestIsolatedProcessOutsidePredicate(t *testing.T) {
	vacuous := map[string]bool{
		engine.FamColoring: true, engine.FamColoringBaseline: true,
		engine.FamColoringXform: true, engine.FamFrozen: true,
	}
	for _, family := range engine.Families() {
		sys := mustBuild(t, graph.Path(3), family).MutableCopy()
		cfg := model.NewZeroConfig(sys)
		sim, err := model.NewSimulator(sys, cfg, sched.NewCentralRoundRobin(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoCrash, U: 2}, nil)
		at := sys.Spec().Legitimate
		isolatedFails := false
		for more := true; more; more = nextCommAssignment(sys, cfg) {
			want := at(sys, cfg, 0) && at(sys, cfg, 1)
			if got := model.Legitimate(sys, cfg); got != want {
				t.Fatalf("%s: model.Legitimate = %v at %v, want %v", family, got, commOf(sys, cfg), want)
			}
			if !want || at(sys, cfg, 2) {
				continue
			}
			isolatedFails = true
			if slices.Contains(ref.EnabledSet(sys, cfg), 2) {
				t.Fatalf("%s: the isolated process is enabled at %v", family, commOf(sys, cfg))
			}
			if family == engine.FamBFSTree && bfsTreeOracle(sys, cfg) {
				t.Fatalf("the BFS tree oracle accepts an isolated non-root process at %v", commOf(sys, cfg))
			}
		}
		if isolatedFails == vacuous[family] {
			t.Errorf("%s: a configuration failing only at the isolated process exists = %v, want %v",
				family, isolatedFails, !vacuous[family])
		}
	}
}
