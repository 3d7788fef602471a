package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testGraphs(t *testing.T) []*Graph {
	t.Helper()
	r := rng.New(77)
	reg, err := RandomRegular(16, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	return []*Graph{
		Path(9), Cycle(10), Complete(6), Star(8), Grid(4, 4),
		Torus(3, 3), Hypercube(3), BalancedBinaryTree(3),
		Caterpillar(4, 2), RandomConnectedGNP(15, 0.2, r), reg,
		TheoremOneSpider(3), FigureElevenNetwork(),
	}
}

func TestGreedyLocalColoringProper(t *testing.T) {
	for _, g := range testGraphs(t) {
		colors := GreedyLocalColoring(g)
		if !IsProperColoring(g, colors) {
			t.Fatalf("%s: greedy coloring not proper", g)
		}
		for _, c := range colors {
			if c < 1 || c > g.MaxDegree()+1 {
				t.Fatalf("%s: color %d outside palette 1..Δ+1", g, c)
			}
		}
		if err := ValidateLocalIdentifiers(g, colors); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
	}
}

func TestRandomizedLocalColoringProper(t *testing.T) {
	r := rng.New(5)
	for _, g := range testGraphs(t) {
		colors := RandomizedLocalColoring(g, r)
		if !IsProperColoring(g, colors) {
			t.Fatalf("%s: randomized coloring not proper", g)
		}
		for _, c := range colors {
			if c < 1 || c > g.MaxDegree()+1 {
				t.Fatalf("%s: color %d outside palette", g, c)
			}
		}
	}
}

func TestRandomizedColoringQuick(t *testing.T) {
	r := rng.New(6)
	check := func(raw uint8) bool {
		n := int(raw%30) + 2
		g := RandomConnectedGNP(n, 0.25, r)
		return IsProperColoring(g, RandomizedLocalColoring(g, r))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIsProperColoringRejects(t *testing.T) {
	g := Path(3)
	if IsProperColoring(g, []int{1, 1, 2}) {
		t.Fatal("monochromatic edge accepted")
	}
	if IsProperColoring(g, []int{1, 2}) {
		t.Fatal("short color vector accepted")
	}
	if !IsProperColoring(g, []int{1, 2, 1}) {
		t.Fatal("valid coloring rejected")
	}
}

func TestColorCount(t *testing.T) {
	colors := []int{5, 2, 2, 9, 5}
	if ColorCount(colors) != 3 {
		t.Fatalf("ColorCount=%d want 3", ColorCount(colors)) //nolint
	}
}

func TestValidateLocalIdentifiersErrors(t *testing.T) {
	g := Path(3)
	if err := ValidateLocalIdentifiers(g, []int{1, 2}); err == nil {
		t.Fatal("short vector accepted")
	}
	if err := ValidateLocalIdentifiers(g, []int{0, 1, 2}); err == nil {
		t.Fatal("non-positive color accepted")
	}
	if err := ValidateLocalIdentifiers(g, []int{1, 1, 2}); err == nil {
		t.Fatal("improper coloring accepted")
	}
}
