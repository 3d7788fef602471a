package graph

import "testing"

func TestTheoremOneChain(t *testing.T) {
	g := TheoremOneChain()
	if g.N() != 5 || g.M() != 4 || g.MaxDegree() != 2 {
		t.Fatal("Theorem 1 chain malformed")
	}
	s := TheoremOneStitched()
	if s.N() != 7 || s.M() != 6 {
		t.Fatal("Theorem 1 stitched chain malformed")
	}
}

func TestTheoremOneSpider(t *testing.T) {
	for delta := 2; delta <= 5; delta++ {
		g := TheoremOneSpider(delta)
		if g.N() != delta*delta+1 {
			t.Fatalf("Δ=%d: n=%d want %d", delta, g.N(), delta*delta+1)
		}
		if g.MaxDegree() != delta {
			t.Fatalf("Δ=%d: max degree %d", delta, g.MaxDegree())
		}
		// Center has degree Δ; middle nodes degree Δ; leaves degree 1.
		if g.Degree(0) != delta {
			t.Fatalf("center degree %d", g.Degree(0))
		}
		for mid := 1; mid <= delta; mid++ {
			if g.Degree(mid) != delta {
				t.Fatalf("middle node %d degree %d", mid, g.Degree(mid))
			}
		}
		for leaf := delta + 1; leaf < g.N(); leaf++ {
			if g.Degree(leaf) != 1 {
				t.Fatalf("leaf %d degree %d", leaf, g.Degree(leaf))
			}
		}
		if !g.IsConnected() {
			t.Fatal("spider disconnected")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TheoremOneSpider(1) did not panic")
		}
	}()
	TheoremOneSpider(1)
}

func TestTheoremTwoNetwork(t *testing.T) {
	rd := TheoremTwoNetwork()
	g, o := rd.Graph, rd.Orientation
	if g.N() != 6 || g.M() != 6 || g.MaxDegree() != 2 {
		t.Fatal("Theorem 2 network malformed")
	}
	// Γ(p2) = {p1, p5}: ids {0, 4} for id 1.
	nb := g.Neighbors(1)
	got := map[int]bool{nb[0]: true, nb[1]: true}
	if !got[0] || !got[4] {
		t.Fatalf("Γ(p2) = %v, want {p1,p5}", nb)
	}
	if !o.IsAcyclic() {
		t.Fatal("Theorem 2 orientation not a dag")
	}
	// p1 (0) and p4 (3) are sources; p5 (4) and p6 (5) are sinks.
	if !o.IsSource(0) || !o.IsSource(3) {
		t.Fatal("p1/p4 not sources")
	}
	if !o.IsSink(4) || !o.IsSink(5) {
		t.Fatal("p5/p6 not sinks")
	}
	if rd.Root != 0 {
		t.Fatal("root is not p1")
	}
	// p6's two incident edges both point into p6 ("the orientation is the
	// same of each of its two neighbors").
	if len(o.Pred(5)) != 2 {
		t.Fatalf("p6 preds = %v", o.Pred(5))
	}
}

func TestFigureNinePath(t *testing.T) {
	g := FigureNinePath(7)
	if g.N() != 7 || g.M() != 6 {
		t.Fatal("Figure 9 path malformed")
	}
	lmax, err := g.LongestPathExact(24)
	if err != nil || lmax != 6 {
		t.Fatalf("Figure 9 Lmax = %d (%v), want 6", lmax, err)
	}
}

func TestFigureElevenNetwork(t *testing.T) {
	g := FigureElevenNetwork()
	if g.M() != 14 {
		t.Fatalf("Figure 11: m=%d want 14", g.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("Figure 11: Δ=%d want 4", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Fatal("Figure 11 network disconnected")
	}
	// {0-1, 2-3} is a maximal matching of size 2 = ⌈m/(2Δ-1)⌉:
	// every edge must be incident to one of {0,1,2,3}.
	matched := map[int]bool{0: true, 1: true, 2: true, 3: true}
	for _, e := range g.Edges() {
		if !matched[e[0]] && !matched[e[1]] {
			t.Fatalf("edge %v avoids the canonical matching; {0-1,2-3} not maximal", e)
		}
	}
	// The four endpoints have degree exactly Δ = 4 (tightness).
	for p := 0; p < 4; p++ {
		if g.Degree(p) != 4 {
			t.Fatalf("matched endpoint %d has degree %d", p, g.Degree(p))
		}
	}
}
