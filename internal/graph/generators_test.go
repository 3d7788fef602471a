package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPathShape(t *testing.T) {
	g := Path(6)
	if g.N() != 6 || g.M() != 5 || g.MaxDegree() != 2 {
		t.Fatalf("path-6: n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	d, err := g.Diameter()
	if err != nil || d != 5 {
		t.Fatalf("path-6 diameter = %d, %v", d, err)
	}
}

func TestCycleShape(t *testing.T) {
	g := Cycle(7)
	if g.N() != 7 || g.M() != 7 || g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Fatal("cycle-7 malformed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Cycle(2) did not panic")
		}
	}()
	Cycle(2)
}

func TestCompleteShape(t *testing.T) {
	g := Complete(6)
	if g.M() != 15 || g.MaxDegree() != 5 {
		t.Fatal("K6 malformed")
	}
}

func TestStarShape(t *testing.T) {
	g := Star(9)
	if g.M() != 8 || g.Degree(0) != 8 || g.Degree(1) != 1 {
		t.Fatal("star malformed")
	}
}

func TestGridTorusShape(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 || g.M() != 3*3+4*2 { // horizontal: 3 per row * 3 rows; vertical: 4 per col-gap * 2
		t.Fatalf("grid 4x3: m=%d", g.M())
	}
	tor := Torus(4, 3)
	if tor.M() != 2*4*3 {
		t.Fatalf("torus 4x3: m=%d", tor.M())
	}
	for p := 0; p < tor.N(); p++ {
		if tor.Degree(p) != 4 {
			t.Fatalf("torus not 4-regular at %d", p)
		}
	}
}

func TestHypercubeShape(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatal("Q4 malformed")
	}
	for p := 0; p < g.N(); p++ {
		if g.Degree(p) != 4 {
			t.Fatal("Q4 not 4-regular")
		}
	}
	if !g.IsBipartite() {
		t.Fatal("hypercube must be bipartite")
	}
}

func TestBalancedBinaryTree(t *testing.T) {
	g := BalancedBinaryTree(3)
	if g.N() != 15 || !g.IsTree() {
		t.Fatal("binary tree depth 3 malformed")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 2)
	if g.N() != 15 || !g.IsTree() {
		t.Fatal("caterpillar malformed")
	}
	if g.Degree(0) != 3 || g.Degree(2) != 4 {
		t.Fatalf("caterpillar degrees: %d %d", g.Degree(0), g.Degree(2))
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	check := func(raw uint8, seed uint64) bool {
		n := int(raw%40) + 2
		g, err := Named("tree", n, seed)
		return err == nil && g.IsTree()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedGNP(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		n := 5 + trial
		g := RandomConnectedGNP(n, 0.15, r)
		if !g.IsConnected() {
			t.Fatalf("GNP graph disconnected at n=%d", n)
		}
		if g.M() < n-1 {
			t.Fatalf("GNP graph too sparse: m=%d", g.M())
		}
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(10)
	g, err := RandomRegular(20, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.N(); p++ {
		if g.Degree(p) != 4 {
			t.Fatalf("process %d has degree %d, want 4", p, g.Degree(p))
		}
	}
	if !g.IsConnected() {
		t.Fatal("random regular graph disconnected")
	}
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Fatal("d >= n accepted")
	}
	if _, err := RandomRegular(4, 0, r); err == nil {
		t.Fatal("d = 0 accepted")
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		g := RandomGeometric(30, 0.15, r)
		if !g.IsConnected() {
			t.Fatal("RGG not connected after stitching")
		}
		if g.N() != 30 {
			t.Fatal("RGG wrong size")
		}
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(5, 4)
	if g.N() != 9 || g.M() != 10+4 {
		t.Fatalf("lollipop malformed: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("lollipop disconnected")
	}
}

func TestNamedGenerators(t *testing.T) {
	for _, name := range NamedGenerators() {
		g, err := Named(name, 16, 42)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("Named(%q) returned empty graph", name)
		}
		if !g.IsConnected() {
			t.Fatalf("Named(%q) returned disconnected graph", name)
		}
	}
	if _, err := Named("nope", 10, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestNamedDeterministic(t *testing.T) {
	for _, name := range []string{"gnp", "tree", "regular", "rgg"} {
		a, err1 := Named(name, 20, 7)
		b, err2 := Named(name, 20, 7)
		if err1 != nil || err2 != nil {
			t.Fatalf("Named(%q) errored: %v %v", name, err1, err2)
		}
		if !a.Equal(b) {
			t.Fatalf("Named(%q) is not deterministic in the seed", name)
		}
	}
}
