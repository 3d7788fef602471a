package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestOrientByColorIsDag(t *testing.T) {
	// Theorem 4: orienting every edge toward the higher color yields a dag.
	for _, g := range testGraphs(t) {
		colors := GreedyLocalColoring(g)
		o, err := OrientByColor(g, colors)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if !o.IsAcyclic() {
			t.Fatalf("%s: color orientation has a cycle, contradicting Theorem 4", g)
		}
		if _, err := o.TopologicalOrder(); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
	}
}

func TestOrientByColorQuick(t *testing.T) {
	r := rng.New(31)
	check := func(raw uint8) bool {
		n := int(raw%25) + 2
		g := RandomConnectedGNP(n, 0.3, r)
		colors := RandomizedLocalColoring(g, r)
		o, err := OrientByColor(g, colors)
		if err != nil {
			return false
		}
		return o.IsAcyclic()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOrientByColorRejectsMonochromaticEdge(t *testing.T) {
	g := Path(3)
	if _, err := OrientByColor(g, []int{1, 1, 2}); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if _, err := OrientByColor(g, []int{1, 2}); err == nil {
		t.Fatal("short color vector accepted")
	}
}

func TestNewOrientationValidation(t *testing.T) {
	g := Path(3)
	if _, err := NewOrientation(g, [][]int{{1}, {2}}); err == nil {
		t.Fatal("short succ accepted")
	}
	if _, err := NewOrientation(g, [][]int{{2}, {}, {}}); err == nil {
		t.Fatal("non-edge orientation accepted")
	}
	if _, err := NewOrientation(g, [][]int{{1}, {0, 2}, {}}); err == nil {
		t.Fatal("doubly-oriented edge accepted")
	}
	if _, err := NewOrientation(g, [][]int{{1}, {}, {}}); err == nil {
		t.Fatal("partial orientation accepted")
	}
	o, err := NewOrientation(g, [][]int{{1}, {2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsAcyclic() {
		t.Fatal("path orientation should be acyclic")
	}
}

func TestSuccPredSourceSink(t *testing.T) {
	g := Path(3)
	o, err := NewOrientation(g, [][]int{{1}, {2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsSource(0) || o.IsSource(1) || !o.IsSink(2) || o.IsSink(0) {
		t.Fatal("source/sink detection wrong")
	}
	if len(o.Pred(1)) != 1 || o.Pred(1)[0] != 0 {
		t.Fatalf("Pred(1)=%v", o.Pred(1))
	}
	if len(o.Succ(1)) != 1 || o.Succ(1)[0] != 2 {
		t.Fatalf("Succ(1)=%v", o.Succ(1))
	}
}

func TestCyclicOrientationDetected(t *testing.T) {
	g := Cycle(3)
	o, err := NewOrientation(g, [][]int{{1}, {2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if o.IsAcyclic() {
		t.Fatal("directed 3-cycle reported acyclic")
	}
	if _, err := o.TopologicalOrder(); err == nil {
		t.Fatal("topological order of a cycle did not error")
	}
}
