package graph

import (
	"testing"

	"repro/internal/rng"
)

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("BFS on path: dist[%d]=%d", i, d)
		}
	}
}

func TestConnectivity(t *testing.T) {
	for _, g := range []*Graph{Path(1), Path(5), Star(6), Cycle(7), Grid(4, 3), Torus(5, 4), BalancedBinaryTree(3)} {
		if !g.IsConnected() {
			t.Fatalf("%s reported disconnected", g.Name())
		}
	}
	b := NewBuilder(4, "disc")
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	g := b.Build()
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if _, err := g.Diameter(); err == nil {
		t.Fatal("diameter of disconnected graph did not error")
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Path(8), 7},
		{Cycle(8), 4},
		{Complete(5), 1},
		{Star(10), 2},
		{Grid(4, 4), 6},
		{Hypercube(3), 3},
	}
	for _, c := range cases {
		d, err := c.g.Diameter()
		if err != nil {
			t.Fatalf("%s: %v", c.g, err)
		}
		if d != c.want {
			t.Fatalf("%s: diameter=%d want %d", c.g, d, c.want)
		}
	}
}

func TestIsTree(t *testing.T) {
	if !Path(5).IsTree() || !Star(5).IsTree() || !BalancedBinaryTree(2).IsTree() {
		t.Fatal("trees not recognized")
	}
	if Cycle(5).IsTree() || Complete(4).IsTree() {
		t.Fatal("non-trees recognized as trees")
	}
}

func TestIsBipartite(t *testing.T) {
	if !Path(6).IsBipartite() || !Cycle(6).IsBipartite() || !Grid(3, 3).IsBipartite() {
		t.Fatal("bipartite graphs misclassified")
	}
	if Cycle(5).IsBipartite() || Complete(3).IsBipartite() {
		t.Fatal("odd cycles misclassified as bipartite")
	}
}

func TestLongestPathExact(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Path(6), 5},
		{Cycle(6), 5},
		{Complete(4), 3},
		{Star(5), 2},
		{Grid(3, 3), 8}, // Hamiltonian path exists in 3x3 grid
	}
	for _, c := range cases {
		got, err := c.g.LongestPathExact(24)
		if err != nil {
			t.Fatalf("%s: %v", c.g, err)
		}
		if got != c.want {
			t.Fatalf("%s: Lmax=%d want %d", c.g, got, c.want)
		}
	}
	if _, err := Grid(6, 6).LongestPathExact(24); err == nil {
		t.Fatal("LongestPathExact did not respect node limit")
	}
}

func TestLongestPathLowerBoundIsLowerBound(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 10; trial++ {
		g := RandomConnectedGNP(12, 0.2, r)
		exact, err := g.LongestPathExact(24)
		if err != nil {
			t.Fatal(err)
		}
		lb := g.LongestPathLowerBound(50, 99)
		if lb > exact {
			t.Fatalf("%s: lower bound %d exceeds exact %d", g, lb, exact)
		}
		if lb <= 0 {
			t.Fatalf("%s: trivial lower bound %d", g, lb)
		}
	}
}

func TestTreeLongestPathViaDoubleBFS(t *testing.T) {
	// For trees LongestPathExact uses double BFS; check against a
	// caterpillar whose longest path is spine + 2 legs.
	g := Caterpillar(4, 1)
	got, err := g.LongestPathExact(50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 { // leg-0-1-2-3-leg
		t.Fatalf("caterpillar Lmax=%d want 5", got)
	}
}
