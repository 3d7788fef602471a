package graph

import "testing"

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3, "t")
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(-1, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestPortNumbering(t *testing.T) {
	// Triangle with an extra pendant: 0-1, 0-2, 1-2, 2-3.
	b := NewBuilder(4, "t")
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	g := b.Build()

	if g.Degree(0) != 2 || g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("unexpected degrees: %d %d %d", g.Degree(0), g.Degree(2), g.Degree(3))
	}
	// Ports are 1-based and follow insertion order.
	if g.Neighbor(0, 1) != 1 || g.Neighbor(0, 2) != 2 {
		t.Fatalf("port order of 0 wrong: %v", g.Neighbors(0))
	}
	// BackPort invariant: Neighbor(q, BackPort(p,i)) == p.
	for p := 0; p < g.N(); p++ {
		for port := 1; port <= g.Degree(p); port++ {
			q := g.Neighbor(p, port)
			if g.Neighbor(q, g.BackPort(p, port)) != p {
				t.Fatalf("BackPort invariant broken at p=%d port=%d", p, port)
			}
		}
	}
	if g.PortOf(2, 3) == 0 || g.PortOf(3, 0) != 0 {
		t.Fatal("PortOf misreports adjacency")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := Cycle(5)
	edges := g.Edges()
	if len(edges) != 5 {
		t.Fatalf("cycle-5 has %d edges, want 5", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("edges not sorted: %v", edges)
		}
	}
	for _, e := range edges {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Fatalf("edge %v not symmetric", e)
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := Path(5), Path(5)
	if !a.Equal(b) {
		t.Fatal("identical paths not Equal")
	}
	if a.Equal(Cycle(5)) {
		t.Fatal("path equals cycle")
	}
	if a.Equal(Path(6)) {
		t.Fatal("different sizes Equal")
	}
}

func TestStringAndName(t *testing.T) {
	g := Path(3)
	if g.Name() != "path-3" {
		t.Fatalf("name = %q", g.Name())
	}
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestMinMaxDegree(t *testing.T) {
	g := Star(6)
	if g.MaxDegree() != 5 || g.MinDegree() != 1 {
		t.Fatalf("star degrees: max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	k := Complete(4)
	if k.MaxDegree() != 3 || k.MinDegree() != 3 {
		t.Fatal("complete graph degrees wrong")
	}
}
