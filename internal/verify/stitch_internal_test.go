package verify

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/frozen"
)

// gamma5 builds a frozen-coloring configuration on the 5-chain.
func gamma5(t *testing.T, colors, curs []int) *model.Config {
	t.Helper()
	g := graph.TheoremOneChain()
	sys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys)
	for p, c := range colors {
		cfg.SetComm(p, coloring.VarC, c)
	}
	for p, cur := range curs {
		cfg.SetInternal(p, coloring.VarCur, cur)
	}
	silent, err := model.CommSilent(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !silent {
		t.Fatalf("handmade source configuration not silent: colors=%v curs=%v", colors, curs)
	}
	return cfg
}

// TestBuildDirect5 exercises the Figure 1 (d) construction with
// deterministic handmade sources (the search procedure may land on
// either case depending on the seed, so both builders are pinned here).
func TestBuildDirect5(t *testing.T) {
	// γA: p3 (id 2) rests on its left neighbor; its color is 0.
	gammaA := gamma5(t, []int{0, 1, 0, 1, 0}, []int{0, 0, 0, 0, 0})
	// γB: p4 (id 3) has color 0 = α3 and rests on its right neighbor.
	gammaB := gamma5(t, []int{0, 1, 2, 0, 1}, []int{0, 0, 0, 1, 0})

	demo, err := buildDirect5(gammaA, gammaB)
	if err != nil {
		t.Fatal(err)
	}
	out, err := demo.Check(5, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FrozenImpossible {
		t.Fatal("direct-5 stitch did not witness the impossibility")
	}
	if out.RealSilent || !out.RealRecovers {
		t.Fatal("real protocol did not escape the direct-5 stitch")
	}
	if demo.Config.Comm(2, coloring.VarC) != demo.Config.Comm(3, coloring.VarC) {
		t.Fatal("seam is not monochromatic")
	}
}

// TestBuildMirror7 exercises the Figure 1 (c) construction: γB's p4
// rests on its LEFT neighbor, so the second half must be mirrored onto a
// 7-chain with the interior ports swapped.
func TestBuildMirror7(t *testing.T) {
	gammaA := gamma5(t, []int{0, 1, 0, 1, 0}, []int{0, 0, 0, 0, 0})
	// γB: p4 (id 3) has color 0 = α3 and rests on its LEFT neighbor
	// (id 2, color 2): the pj = p5 case of the proof.
	gammaB := gamma5(t, []int{0, 1, 2, 0, 1}, []int{0, 0, 0, 0, 0})

	demo, err := buildMirror7(gammaA, gammaB)
	if err != nil {
		t.Fatal(err)
	}
	if demo.Frozen.Graph().N() != 7 {
		t.Fatal("mirror stitch must live on the 7-chain")
	}
	out, err := demo.Check(7, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FrozenImpossible {
		t.Fatal("mirror-7 stitch did not witness the impossibility")
	}
	if out.RealSilent || !out.RealRecovers {
		t.Fatal("real protocol did not escape the mirror-7 stitch")
	}
	// The mirrored processes must still look away from the seam: p'4
	// (id 3) took γB's p4 with its port swapped to the right.
	if demo.Config.Internal(3, coloring.VarCur) != 1 {
		t.Fatalf("p'4 cur = %d, want mirrored port 1 (right)", demo.Config.Internal(3, coloring.VarCur))
	}
}
