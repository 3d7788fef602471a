package verify

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
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
		t.Errorf("%s: configuration is not silent under the frozen protocol", d.Name)
	}
	if !out.Illegitimate {
		t.Errorf("%s: configuration does not violate the predicate", d.Name)
	}
	if !out.FrozenImpossible {
		t.Errorf("%s: impossibility not witnessed", d.Name)
	}
	if out.RealSilent {
		t.Errorf("%s: real protocol is silent on the configuration; the scan should detect the seam", d.Name)
	}
	if !out.RealRecovers {
		t.Errorf("%s: real protocol did not recover from the configuration", d.Name)
	}
	return out
}

// mustDemo builds a row's systems.
func mustDemo(t *testing.T, r row) *Demo {
	t.Helper()
	d, err := r.demo()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustBuild builds family on g with greedy local identifiers.
func mustBuild(t *testing.T, g *graph.Graph, family string) *model.System {
	t.Helper()
	sys, err := engine.Build(g, family, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mustWitness builds a row's Demo with its witness.
func mustWitness(t *testing.T, r row) *Demo {
	t.Helper()
	demos, err := witnesses([]row{r})
	if err != nil {
		t.Fatal(err)
	}
	return demos[0]
}

// search runs firstSilent with the package budget and fails on an error.
func search(t *testing.T, sys *model.System, accept func(*model.Config) bool) *model.Config {
	t.Helper()
	cfg, err := firstSilent(sys, accept, searchBudget)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestTheoremWitnesses(t *testing.T) {
	one, err := TheoremOne()
	if err != nil {
		t.Fatal(err)
	}
	two, err := TheoremTwo()
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 8 || len(two) != 2 {
		t.Fatalf("got %d Theorem 1 and %d Theorem 2 witnesses, want 8 and 2", len(one), len(two))
	}
	for _, d := range append(one, two...) {
		if err := d.Config.Validate(d.Frozen); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		checkDemo(t, d)
	}
}

// TestSilentImpliesLegitimate proves, by exhausting every configuration
// the search can reach, that the real COLORING, MIS and MATCHING and
// their full-read baselines have no silent illegitimate configuration on
// each network below, and pins which frozen variants have one. Frozen
// MIS under greedy local colors has none on most of them: E7's MIS row
// declares other identifiers. The view enumeration (TestViewProof) proves
// the first for COLORING and MIS on every network up to Δ = 4; this
// search is MATCHING's only evidence, and what lets MATCHING-FULLREAD
// share MATCHING's predicate.
func TestSilentImpliesLegitimate(t *testing.T) {
	graphs := []*graph.Graph{
		graph.TheoremOneChain(), graph.TheoremOneStitched(), graph.Path(6),
		graph.Cycle(5), graph.Cycle(6), graph.TheoremTwoNetwork().Graph, graph.TheoremOneSpider(2),
	}
	frozenMISWitness := map[string]bool{"cycle-5": true, "thm2-net": true}
	illegit := func(sys *model.System) func(*model.Config) bool {
		return func(c *model.Config) bool { return !model.Legitimate(sys, c) }
	}
	families := []string{
		engine.FamColoring, engine.FamMIS, engine.FamMatching,
		engine.FamColoringBaseline, engine.FamMISBaseline, engine.FamMatchingBaseline,
	}
	for _, family := range families {
		for _, g := range graphs {
			sys := mustBuild(t, g, family)
			if cfg := search(t, sys, illegit(sys)); cfg != nil {
				t.Errorf("%s on %s: silent illegitimate configuration found", sys.Spec().Name, g.Name())
			}
			frozen, ok := frozenOf[family]
			if !ok {
				continue
			}
			sys = mustBuild(t, g, frozen)
			want := family != engine.FamMIS || frozenMISWitness[g.Name()]
			if got := search(t, sys, illegit(sys)) != nil; got != want {
				t.Errorf("%s on %s: witness found = %v, want %v", sys.Spec().Name, g.Name(), got, want)
			}
		}
	}
}

func TestStitchSearchColoring(t *testing.T) {
	demo := mustWitness(t, row{name: "mirror7", g: graph.TheoremOneStitched(), family: engine.FamColoring, stitch: stitchMirror7})
	checkDemo(t, demo)
	// The seam {p'3, p'4} is monochromatic, and both ends look away
	// from it: p'3 at p'2 (port 1), p'4 at p'5 (port 2).
	cfg := demo.Config
	if cfg.Comm(2, coloring.VarC) != cfg.Comm(3, coloring.VarC) {
		t.Fatal("seam processes do not share a color")
	}
	if cfg.Internal(2, coloring.VarCur) != 0 || cfg.Internal(3, coloring.VarCur) != 1 {
		t.Fatalf("seam pointers %d, %d; want 0, 1", cfg.Internal(2, coloring.VarCur), cfg.Internal(3, coloring.VarCur))
	}
}

func TestStitchSearchTheorem2(t *testing.T) {
	demo := mustWitness(t, row{name: "thm2-stitch", g: graph.TheoremTwoNetwork().Graph, family: engine.FamColoring, stitch: stitchTheorem2})
	checkDemo(t, demo)
	// The seam is the p2-p5 edge of Figure 3, and both carry the same
	// color in the stitched configuration.
	if demo.Config.Comm(1, coloring.VarC) != demo.Config.Comm(4, coloring.VarC) {
		t.Fatal("seam processes do not share a color")
	}
}

func TestFirstSilentRejects(t *testing.T) {
	sys := mustDemo(t, row{g: graph.TheoremOneChain(), family: engine.FamColoring}).Real
	never := func(*model.Config) bool { return false }
	t.Run("never-accepts", func(t *testing.T) {
		if cfg := search(t, sys, never); cfg != nil {
			t.Fatal("a search that accepts nothing returned a configuration")
		}
	})
	t.Run("budget", func(t *testing.T) {
		cfg, err := firstSilent(sys, never, 10)
		if err == nil || cfg != nil {
			t.Fatalf("a 10-state budget returned %v, %v; want an error", cfg, err)
		}
	})
}

// ncWitness checks Definition 10 on an edge (p, q) of sys: a silent
// configuration γp in which p's communication state αp is one alphaP
// takes, a silent γq in which q's αq is one alphaQ takes, and αq
// substituted into γp is illegitimate.
func ncWitness(t *testing.T, d *Demo, sys *model.System, q int, alphaP, alphaQ func(*model.Config) bool) {
	t.Helper()
	gammaP, gammaQ := search(t, sys, alphaP), search(t, sys, alphaQ)
	if gammaP == nil || gammaQ == nil {
		t.Fatalf("%s: no silent configuration for p (%v) or q (%v)", d.Name, gammaP != nil, gammaQ != nil)
	}
	joint := gammaP.Clone()
	for v := range sys.CommWidth() {
		joint.SetComm(q, v, gammaQ.Comm(q, v))
	}
	if model.Legitimate(sys, joint) {
		t.Fatalf("%s: αp and αq coexist legitimately", d.Name)
	}
}

func TestNCWitnessColoring(t *testing.T) {
	// Every color a process can carry silently, its neighbor can carry
	// silently too, and the two conflict.
	d := mustDemo(t, row{name: "coloring-ring-6", g: graph.Cycle(6), family: engine.FamColoring})
	for a := range d.Real.CommDomain(0, coloring.VarC) {
		ncWitness(t, d, d.Real, 1,
			func(c *model.Config) bool { return c.Comm(0, coloring.VarC) == a },
			func(c *model.Config) bool { return c.Comm(1, coloring.VarC) == a })
	}
}

func TestMISSilentConfigurationUnique(t *testing.T) {
	// With fixed local identifiers, the silent configuration of the real
	// MIS protocol is unique up to pointers: p is a Dominator iff no
	// smaller-colored neighbor is (induction over color ranks). This is
	// why no neighbor-completeness witness exists among the protocol's
	// own silent configurations on one colored system — the local
	// identifiers are exactly what lets MIS evade the anonymous-network
	// impossibility of Theorem 1.
	g := graph.Path(6)
	sys := mustDemo(t, row{g: g, family: engine.FamMIS}).Real
	first := search(t, sys, func(*model.Config) bool { return true })
	if first == nil {
		t.Fatal("MIS has no silent configuration")
	}
	other := search(t, sys, func(c *model.Config) bool {
		for p := range g.N() {
			if c.Comm(p, mis.VarS) != first.Comm(p, mis.VarS) {
				return true
			}
		}
		return false
	})
	if other != nil {
		t.Fatal("two silent configurations differ in their Dominators")
	}
}

func TestNCWitnessFrozenMIS(t *testing.T) {
	// The frozen (♦-1-stable) MIS variant has many silent configurations,
	// so the Definition 10 witness pair (both Dominator) exists across
	// two of them. The real MIS's silent configuration is unique (see
	// TestMISSilentConfigurationUnique), and in it process 2 is never a
	// Dominator. With a 2-coloring the color-1 processes are forced
	// Dominators even when frozen; these identifiers leave room.
	d := mustDemo(t, row{name: "frozen-mis-path-6", g: graph.Path(6), family: engine.FamMIS, colors: []int{1, 2, 3, 1, 2, 3}})
	dominator := func(p int) func(*model.Config) bool {
		return func(c *model.Config) bool { return c.Comm(p, mis.VarS) == mis.Dominator }
	}
	ncWitness(t, d, d.Frozen, 2, dominator(1), dominator(2))
	if search(t, d.Real, dominator(2)) != nil {
		t.Fatal("real MIS has a silent configuration in which process 2 is a Dominator")
	}
}

func TestNCWitnessMatching(t *testing.T) {
	// Each of two adjacent processes is free in some silent
	// configuration; both free violates maximality.
	d := mustDemo(t, row{name: "matching-path-6", g: graph.Path(6), family: engine.FamMatching})
	ncWitness(t, d, d.Real, 3,
		func(c *model.Config) bool { return c.Comm(2, matching.VarPR) == 0 },
		func(c *model.Config) bool { return c.Comm(3, matching.VarPR) == 0 })
}

func TestNCWitnessRequiresAdjacency(t *testing.T) {
	// Processes 0 and 4 of the 5-chain share a color in a silent
	// configuration that is legitimate: a conflict of states across a
	// non-edge is no witness.
	d := mustDemo(t, row{g: graph.Path(5), family: engine.FamColoring})
	cfg := search(t, d.Real, func(c *model.Config) bool {
		return c.Comm(0, coloring.VarC) == c.Comm(4, coloring.VarC)
	})
	if cfg == nil || !model.Legitimate(d.Real, cfg) {
		t.Fatal("no legitimate silent configuration with processes 0 and 4 sharing a color")
	}
}

func TestRecoveryStepsReported(t *testing.T) {
	out, err := mustWitness(t, row{name: "thm1-coloring-5chain", g: graph.TheoremOneChain(), family: engine.FamColoring}).Check(7, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if out.RealRecovers && out.RecoverySteps <= 0 {
		t.Fatal("recovery reported with non-positive step count")
	}
}
