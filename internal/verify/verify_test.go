package verify

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/frozen"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
)

func checkDemo(t *testing.T, d *Demo) Outcome {
	t.Helper()
	out, err := d.Check(1234, 400000)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	if !out.FrozenSilent {
		t.Errorf("%s: stitched configuration is not silent under the frozen protocol", d.Name)
	}
	if !out.Illegitimate {
		t.Errorf("%s: stitched configuration does not violate the predicate", d.Name)
	}
	if !out.FrozenImpossible {
		t.Errorf("%s: impossibility not witnessed", d.Name)
	}
	if out.RealSilent {
		t.Errorf("%s: real protocol is silent on the stitched configuration; the scan should detect the seam", d.Name)
	}
	if !out.RealRecovers {
		t.Errorf("%s: real protocol did not recover from the stitched configuration", d.Name)
	}
	return out
}

func TestHandcraftedDemos(t *testing.T) {
	demos, err := AllHandcrafted()
	if err != nil {
		t.Fatal(err)
	}
	if len(demos) < 8 {
		t.Fatalf("expected at least 8 handcrafted demos, got %d", len(demos))
	}
	for _, d := range demos {
		checkDemo(t, d)
	}
}

func TestSeamIsAdjacentAndConflicting(t *testing.T) {
	demos, err := AllHandcrafted()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range demos {
		if d.Frozen.Graph().PortOf(d.SeamP, d.SeamQ) == 0 {
			t.Errorf("%s: seam processes %d,%d not adjacent", d.Name, d.SeamP, d.SeamQ)
		}
	}
}

func TestStitchSearchColoring(t *testing.T) {
	demo, tr, err := StitchSearchColoring(9000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Case != "direct-5" && tr.Case != "mirror-7" {
		t.Fatalf("unexpected stitch case %q", tr.Case)
	}
	// The harvested sources must themselves be silent under the frozen
	// protocol.
	chain := graph.TheoremOneChain()
	fsys := demo.Frozen
	if tr.Case == "mirror-7" {
		var err2 error
		fsys, err2 = model.NewSystem(chain, demo.Frozen.Spec(), nil)
		if err2 != nil {
			t.Fatal(err2)
		}
	}
	for name, g := range map[string]*model.Config{"γA": tr.GammaA, "γB": tr.GammaB} {
		silent, err := model.CommSilent(fsys, g)
		if err != nil || !silent {
			t.Fatalf("source %s not silent: %v %v", name, silent, err)
		}
	}
	checkDemo(t, demo)
}

func TestStitchSearchTheorem2(t *testing.T) {
	demo, tr, err := StitchSearchTheorem2Coloring(11000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Case != "theorem2" {
		t.Fatalf("unexpected case %q", tr.Case)
	}
	checkDemo(t, demo)
	// The seam is the p2-p5 edge of Figure 3, and both carry the same
	// color in the stitched configuration.
	if demo.Config.Comm(1, coloring.VarC) != demo.Config.Comm(4, coloring.VarC) {
		t.Fatal("seam processes do not share a color")
	}
}

func TestFindSilentConfigRejects(t *testing.T) {
	g := graph.TheoremOneChain()
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Impossible acceptance condition: exhausts attempts.
	_, _, err = FindSilentConfig(sys, func(*model.Config) bool { return false }, 1, 3, 5000)
	if err == nil {
		t.Fatal("impossible acceptance condition did not error")
	}
}

func TestNCWitnessColoring(t *testing.T) {
	g := graph.Cycle(6)
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FindNCWitness(sys, coloring.IsLegitimate, 0, 1,
		func(a, b []int) bool { return a[coloring.VarC] == b[coloring.VarC] },
		500, 200, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if w.AlphaP[coloring.VarC] != w.AlphaQ[coloring.VarC] {
		t.Fatal("witness states do not conflict")
	}
	// Both source configurations are silent (condition 2b).
	for _, gcfg := range []*model.Config{w.GammaP, w.GammaQ} {
		silent, err := model.CommSilent(sys, gcfg)
		if err != nil || !silent {
			t.Fatalf("witness source configuration not silent: %v %v", silent, err)
		}
	}
}

func TestMISSilentConfigurationUnique(t *testing.T) {
	// With fixed local identifiers, the silent configuration of the real
	// MIS protocol is unique: p is a Dominator iff no smaller-colored
	// neighbor is (induction over color ranks). This is why no
	// neighbor-completeness witness can be harvested from the protocol's
	// own silent configurations on one colored system — the local
	// identifiers are exactly what lets MIS evade the anonymous-network
	// impossibility of Theorem 1.
	g := graph.Path(6)
	colors := graph.GreedyLocalColoring(g)
	sys, err := mis.NewSystem(g, mis.Spec(g.MaxDegree()+1), colors)
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for seed := uint64(0); seed < 20; seed++ {
		cfg, _, err := FindSilentConfig(sys, func(*model.Config) bool { return true },
			seed*31+1, 5, 100000)
		if err != nil {
			t.Fatal(err)
		}
		s := make([]int, g.N())
		for p := 0; p < g.N(); p++ {
			s[p] = cfg.Comm(p, mis.VarS)
		}
		if first == nil {
			first = s
			continue
		}
		for p := range s {
			if s[p] != first[p] {
				t.Fatalf("seed %d: silent Dominator set differs at %d: %v vs %v", seed, p, s, first)
			}
		}
	}
}

func TestNCWitnessFrozenMIS(t *testing.T) {
	// The frozen (♦-1-stable) MIS variant has many silent configurations
	// — including ones with Dominators that never see each other — so
	// the Definition 10 witness pair (both Dominator) is harvestable.
	// Colors are chosen so that both witness processes can stabilize as
	// Dominators in some run: with a 2-coloring the color-1 processes
	// are forced Dominators even when frozen.
	g := graph.Path(6)
	colors := []int{1, 2, 3, 1, 2, 3}
	sys, err := mis.NewSystem(g, frozen.MISSpec(3), colors)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FindNCWitness(sys, mis.IsLegitimate, 1, 2,
		func(a, b []int) bool {
			return a[mis.VarS] == mis.Dominator && b[mis.VarS] == mis.Dominator
		},
		700, 400, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if w.AlphaP[mis.VarS] != mis.Dominator || w.AlphaQ[mis.VarS] != mis.Dominator {
		t.Fatal("witness states are not both Dominator")
	}
}

func TestNCWitnessMatching(t *testing.T) {
	g := graph.Path(6)
	colors := graph.GreedyLocalColoring(g)
	sys, err := matching.NewSystem(g, matching.Spec(g.MaxDegree()+1), colors)
	if err != nil {
		t.Fatal(err)
	}
	// Two adjacent free processes violate maximality.
	w, err := FindNCWitness(sys, matching.IsLegitimate, 2, 3,
		func(a, b []int) bool {
			return a[matching.VarPR] == 0 && b[matching.VarPR] == 0
		},
		900, 300, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if w.AlphaP[matching.VarPR] != 0 || w.AlphaQ[matching.VarPR] != 0 {
		t.Fatal("witness states are not both free")
	}
}

func TestNCWitnessRequiresAdjacency(t *testing.T) {
	g := graph.Path(5)
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindNCWitness(sys, coloring.IsLegitimate, 0, 4,
		func(a, b []int) bool { return true }, 1, 5, 1000); err == nil {
		t.Fatal("non-adjacent witness pair accepted")
	}
}

func TestRecoveryStepsReported(t *testing.T) {
	d, err := Theorem1Coloring5Chain()
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Check(7, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if out.RealRecovers && out.RecoverySteps <= 0 {
		t.Fatal("recovery reported with non-positive step count")
	}
}
