package verify

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
)

// gamma5 builds a frozen-coloring configuration on the 5-chain and
// requires it to be silent.
func gamma5(t *testing.T, colors, curs []int) *model.Config {
	t.Helper()
	sys := mustDemo(t, row{g: graph.TheoremOneChain(), family: engine.FamColoring}).Frozen
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
		t.Fatalf("source configuration not silent: colors=%v curs=%v", colors, curs)
	}
	return cfg
}

// TestBuildMirror7 pins splice7 on sources written out by hand: γB's p4
// rests on its LEFT neighbor, so the second half must be mirrored onto
// the 7-chain with the interior ports swapped.
func TestBuildMirror7(t *testing.T) {
	gammaA := gamma5(t, []int{0, 1, 0, 1, 0}, []int{0, 0, 0, 0, 0})
	// γB: p4 (id 3) has color 0 = α3 and rests on its left neighbor
	// (id 2, color 2): the pj = p5 case of the proof.
	gammaB := gamma5(t, []int{0, 1, 2, 0, 1}, []int{0, 0, 0, 0, 0})

	demo := mustDemo(t, row{name: "mirror7", g: graph.TheoremOneStitched(), family: engine.FamColoring})
	demo.Config = model.NewZeroConfig(demo.Frozen)
	splice7(demo.Config, gammaA, gammaB)
	wantColors := []int{0, 1, 0, 0, 2, 1, 0}
	wantCurs := []int{0, 0, 0, 1, 1, 1, 0}
	for p := range 7 {
		if c, cur := demo.Config.Comm(p, coloring.VarC), demo.Config.Internal(p, coloring.VarCur); c != wantColors[p] || cur != wantCurs[p] {
			t.Fatalf("p'%d: color %d cur %d, want %d %d", p+1, c, cur, wantColors[p], wantCurs[p])
		}
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
}
