package graph

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

func dynamicTestGraphs(t testing.TB) []*Graph {
	t.Helper()
	gnp := RandomConnectedGNP(12, 0.3, rng.New(41))
	return []*Graph{Cycle(8), Grid(3, 4), Complete(5), Torus(3, 3), gnp}
}

// edgeSet is the from-scratch oracle a mutated dynamic graph is checked
// against: a plain map of live edges.
type edgeSet map[[2]int]bool

func (s edgeSet) key(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }

func newEdgeSet(g *Graph) edgeSet {
	s := edgeSet{}
	for _, e := range g.Edges() {
		s[e] = true
	}
	return s
}

// checkAgainst verifies the dynamic graph's structure against the
// oracle edge set plus the representation invariants and checkArcs.
func (s edgeSet) checkAgainst(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkArcs(t, g)
	if g.M() != len(s) {
		t.Fatalf("M() = %d, oracle has %d edges", g.M(), len(s))
	}
	for _, e := range g.Edges() {
		if !s[e] {
			t.Fatalf("graph has edge %v the oracle lacks", e)
		}
	}
}

// checkArcs checks every live port's arc against its definition:
// RowStart(p) plus the neighbor's index in BaseRow(p), mapped back to
// the neighbor by ArcHead.
func checkArcs(t *testing.T, g *Graph) {
	t.Helper()
	for p := range g.N() {
		for port := 1; port <= g.Degree(p); port++ {
			q := g.Neighbor(p, port)
			a := g.Arc(p, port)
			if want := g.RowStart(p) + slices.Index(g.BaseRow(p), int32(q)); a != want || g.ArcHead(a) != q {
				t.Fatalf("%s: process %d port %d (neighbor %d): Arc = %d, want %d; ArcHead = %d", g.Name(), p, port, q, a, want, g.ArcHead(a))
			}
		}
	}
}

// TestDynamicMutationsAgainstOracle drives random remove/restore/crash/
// revive sequences and checks the CSR representation against a plain
// edge-set oracle after every event.
func TestDynamicMutationsAgainstOracle(t *testing.T) {
	t.Parallel()
	checkMutationsAgainstOracle(t)
}

func checkMutationsAgainstOracle(t *testing.T) {
	for _, base := range dynamicTestGraphs(t) {
		checkArcs(t, base)
		g := base.MutableCopy()
		if !g.Equal(base) {
			t.Fatalf("%s: MutableCopy not Equal to base", base.Name())
		}
		r := rng.New(7)
		oracle := newEdgeSet(base)
		baseEdges := base.Edges()
		crashed := map[int]bool{}
		for step := 0; step < 400; step++ {
			switch r.Intn(4) {
			case 0: // remove a random base edge if live
				e := baseEdges[r.Intn(len(baseEdges))]
				want := oracle[e]
				if got := g.RemoveEdge(e[0], e[1]); got != want {
					t.Fatalf("%s step %d: RemoveEdge%v = %v, want %v", base.Name(), step, e, got, want)
				}
				delete(oracle, e)
			case 1: // restore a random base edge if removed and endpoints alive
				e := baseEdges[r.Intn(len(baseEdges))]
				want := !oracle[e] && !crashed[e[0]] && !crashed[e[1]]
				if got := g.RestoreEdge(e[0], e[1]); got != want {
					t.Fatalf("%s step %d: RestoreEdge%v = %v, want %v", base.Name(), step, e, got, want)
				}
				if want {
					oracle[e] = true
				}
			case 2: // crash a random process
				p := r.Intn(base.N())
				want := !crashed[p]
				if got := g.CrashNode(p); got != want {
					t.Fatalf("%s step %d: CrashNode(%d) = %v, want %v", base.Name(), step, p, got, want)
				}
				crashed[p] = true
				for e := range oracle {
					if e[0] == p || e[1] == p {
						delete(oracle, e)
					}
				}
			case 3: // revive a random process
				p := r.Intn(base.N())
				want := crashed[p]
				if got := g.ReviveNode(p); got != want {
					t.Fatalf("%s step %d: ReviveNode(%d) = %v, want %v", base.Name(), step, p, got, want)
				}
				if !want {
					break
				}
				delete(crashed, p)
				for _, e := range baseEdges {
					if (e[0] == p || e[1] == p) && !crashed[e[0]] && !crashed[e[1]] {
						oracle[e] = true
					}
				}
			}
			oracle.checkAgainst(t, g)
			for p := 0; p < base.N(); p++ {
				if g.Alive(p) == crashed[p] {
					t.Fatalf("%s step %d: Alive(%d) = %v, crashed %v", base.Name(), step, p, g.Alive(p), crashed[p])
				}
			}
		}
		g.ResetTopology()
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !g.Equal(base) {
			t.Fatalf("%s: ResetTopology did not restore the base graph (ports included)", base.Name())
		}
	}
}

// TestDynamicRemoveRestoreRoundTrip: removing and restoring the full
// edge set returns to the base edge set (any port order), and
// ResetTopology returns to the exact base ports.
func TestDynamicRemoveRestoreRoundTrip(t *testing.T) {
	t.Parallel()
	checkRemoveRestoreRoundTrip(t)
}

func checkRemoveRestoreRoundTrip(t *testing.T) {
	for _, base := range dynamicTestGraphs(t) {
		g := base.MutableCopy()
		edges := base.Edges()
		for _, e := range edges {
			if !g.RemoveEdge(e[0], e[1]) {
				t.Fatalf("%s: RemoveEdge%v failed", base.Name(), e)
			}
		}
		if g.M() != 0 || g.MaxDegree() != 0 {
			t.Fatalf("%s: not empty after removing all edges", base.Name())
		}
		for i := len(edges) - 1; i >= 0; i-- {
			if !g.RestoreEdge(edges[i][0], edges[i][1]) {
				t.Fatalf("%s: RestoreEdge%v failed", base.Name(), edges[i])
			}
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if g.M() != base.M() {
			t.Fatalf("%s: M %d after round trip, want %d", base.Name(), g.M(), base.M())
		}
		for p := 0; p < base.N(); p++ {
			if g.Degree(p) != base.Degree(p) {
				t.Fatalf("%s: degree of %d is %d after round trip, want %d", base.Name(), p, g.Degree(p), base.Degree(p))
			}
		}
		g.ResetTopology()
		if !g.Equal(base) {
			t.Fatalf("%s: ResetTopology did not restore base ports", base.Name())
		}
	}
}

// TestDynamicRejectsStatic: mutation on a non-copy panics loudly rather
// than corrupting a shared immutable graph.
func TestDynamicRejectsStatic(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveEdge on a static graph did not panic")
		}
	}()
	Cycle(4).RemoveEdge(0, 1)
}

// TestDynamicCrashReviveIsolation: a crashed process reports alive =
// false and degree 0; revival restores exactly the base edges whose
// other endpoint is alive.
func TestDynamicCrashReviveIsolation(t *testing.T) {
	t.Parallel()
	checkCrashReviveIsolation(t)
}

func checkCrashReviveIsolation(t *testing.T) {
	base := Grid(3, 3)
	g := base.MutableCopy()
	g.CrashNode(4) // center of the grid
	g.CrashNode(1)
	if g.Alive(4) || g.Degree(4) != 0 {
		t.Fatalf("crashed process: alive=%v deg=%d", g.Alive(4), g.Degree(4))
	}
	g.ReviveNode(4)
	// 4's base neighbors are 1, 3, 5, 7; with 1 still crashed only three
	// edges return.
	if g.Degree(4) != 3 || g.HasEdge(4, 1) {
		t.Fatalf("revived process: deg=%d hasEdge(4,1)=%v, want 3/false", g.Degree(4), g.HasEdge(4, 1))
	}
	g.ReviveNode(1)
	if g.M() != base.M() {
		t.Fatalf("M=%d after full revival, want %d", g.M(), base.M())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicZeroAlloc: steady-state mutation — remove/restore an edge,
// crash/revive a node — allocates nothing.
func TestDynamicZeroAlloc(t *testing.T) {
	g := Torus(4, 4).MutableCopy()
	if avg := testing.AllocsPerRun(200, func() {
		g.RemoveEdge(0, 1)
		g.RestoreEdge(0, 1)
		g.CrashNode(5)
		g.ReviveNode(5)
		g.ResetTopology()
	}); avg != 0 {
		t.Fatalf("steady-state mutation allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkGraphMutation measures the remove+restore pair and the
// crash+revive pair on a torus — the graph-layer hot path of churn
// adversaries.
func BenchmarkGraphMutation(b *testing.B) {
	b.Run("edge-remove-restore", func(b *testing.B) {
		g := Torus(8, 8).MutableCopy()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.RemoveEdge(0, 1)
			g.RestoreEdge(0, 1)
		}
	})
	b.Run("node-crash-revive", func(b *testing.B) {
		g := Torus(8, 8).MutableCopy()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.CrashNode(9)
			g.ReviveNode(9)
		}
	})
}
