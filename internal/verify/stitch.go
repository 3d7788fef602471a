package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/frozen"
)

// StitchTrace records how a stitched configuration was obtained by the
// search-based procedure.
type StitchTrace struct {
	// Case is "direct-5" (Figure 1 (d)) or "mirror-7" (Figure 1 (c)).
	Case string
	// SeedA and SeedB are the run seeds that produced the two silent
	// source configurations γ3 and γ4 of the proof.
	SeedA, SeedB uint64
	// GammaA and GammaB are the harvested silent configurations on the
	// 5-chain.
	GammaA, GammaB *model.Config
}

// StitchSearchColoring executes the cut-and-stitch procedure from the
// proof of Theorem 1 against the frozen (♦-1-stable) coloring protocol
// on the anonymous 5-chain:
//
//  1. run the protocol to silence and harvest a configuration γA in
//     which p3 has stopped reading p4 (its pointer rests on p2);
//  2. run it again and harvest a silent γB in which p4 carries the same
//     color as p3 does in γA, and has stopped reading either p5
//     (Figure 1 (d), direct stitch on the 5-chain) or p3 (Figure 1 (c),
//     mirrored stitch onto a 7-chain);
//  3. transplant the process states; nobody reads across the seam, so
//     the stitched configuration is silent yet monochromatic on the seam
//     edge.
//
// The returned Demo carries both the frozen system (deadlocked) and the
// real Protocol COLORING system (which recovers).
func StitchSearchColoring(startSeed uint64) (*Demo, *StitchTrace, error) {
	chain := graph.TheoremOneChain()
	fsys5, err := model.NewSystem(chain, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, nil, err
	}
	const (
		attempts = 600
		maxSteps = 20000
	)
	// Step 1: γA with cur.p3 resting on p2 (port 1, stored 0).
	gammaA, seedA, err := FindSilentConfig(fsys5, func(c *model.Config) bool {
		return c.Internal(2, coloring.VarCur) == 0
	}, startSeed, attempts, maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: harvesting γA: %w", err)
	}
	alpha3 := gammaA.Comm(2, coloring.VarC)

	// Step 2: γB with C.p4 = α3; either pointer direction of p4 yields a
	// construction.
	gammaB, seedB, err := FindSilentConfig(fsys5, func(c *model.Config) bool {
		return c.Comm(3, coloring.VarC) == alpha3
	}, startSeed+attempts, attempts, maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: harvesting γB: %w", err)
	}

	tr := &StitchTrace{SeedA: seedA, SeedB: seedB, GammaA: gammaA.Clone(), GammaB: gammaB.Clone()}
	if gammaB.Internal(3, coloring.VarCur) == 1 {
		// p4 rests on p5 — it never reads p3: direct 5-chain stitch
		// (Figure 1 (d)).
		tr.Case = "direct-5"
		demo, err := buildDirect5(gammaA, gammaB)
		return demo, tr, err
	}
	// p4 rests on p3 — in γB it never reads p5: mirrored 7-chain stitch
	// (Figure 1 (c)).
	tr.Case = "mirror-7"
	demo, err := buildMirror7(gammaA, gammaB)
	return demo, tr, err
}

func buildDirect5(gammaA, gammaB *model.Config) (*Demo, error) {
	g := graph.TheoremOneChain()
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	for p := 0; p <= 2; p++ {
		copyState(cfg, p, gammaA, p)
	}
	for p := 3; p <= 4; p++ {
		copyState(cfg, p, gammaB, p)
	}
	return &Demo{
		Name:   "thm1-coloring-stitch-direct5",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  2, SeamQ: 3,
	}, nil
}

func buildMirror7(gammaA, gammaB *model.Config) (*Demo, error) {
	g := graph.TheoremOneStitched()
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(fsys)
	// p'1..p'3 take p1..p3 from γA with orientation preserved.
	for p := 0; p <= 2; p++ {
		copyState(cfg, p, gammaA, p)
	}
	// p'4..p'7 take p4, p3, p2, p1 from γB with mirrored orientation:
	// on a path, mirroring swaps the two ports of interior processes.
	sources := []int{3, 2, 1, 0}
	for i, src := range sources {
		dst := 4 + i - 1 // dst = 3, 4, 5, 6
		copyState(cfg, dst, gammaB, src)
		if src >= 1 && src <= 3 { // interior in the 5-chain: mirror cur
			cfg.SetInternal(dst, coloring.VarCur, 1-gammaB.Internal(src, coloring.VarCur))
		}
	}
	return &Demo{
		Name:   "thm1-coloring-stitch-mirror7",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  2, SeamQ: 3,
	}, nil
}

// copyState gives process dp of dst the COLORING state of sp in src.
func copyState(dst *model.Config, dp int, src *model.Config, sp int) {
	dst.SetComm(dp, coloring.VarC, src.Comm(sp, coloring.VarC))
	dst.SetInternal(dp, coloring.VarCur, src.Internal(sp, coloring.VarCur))
}

// StitchSearchTheorem2Coloring executes the Theorem 2 stitch on the
// rooted dag-oriented 6-process network of Figure 3: harvest a silent
// γ2 in which p2 has stopped reading p5 and p6 has stopped reading p4,
// harvest a silent γ5 in which p5 carries p2's γ2 color and has stopped
// reading p2 while p4 has stopped reading p6, then combine
// {p1,p2,p3,p6} from γ2 with {p4,p5} from γ5 (Figure 4 (c)).
func StitchSearchTheorem2Coloring(startSeed uint64) (*Demo, *StitchTrace, error) {
	rd := graph.TheoremTwoNetwork()
	g := rd.Graph
	fsys, err := model.NewSystem(g, frozen.ColoringSpec(), nil)
	if err != nil {
		return nil, nil, err
	}
	rsys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		return nil, nil, err
	}
	const (
		attempts = 800
		maxSteps = 20000
	)
	// ids: p1=0 p2=1 p3=2 p4=3 p5=4 p6=5.
	curAt := func(c *model.Config, p, q int) bool {
		return c.Internal(p, coloring.VarCur) == g.PortOf(p, q)-1
	}
	gamma2, seedA, err := FindSilentConfig(fsys, func(c *model.Config) bool {
		return curAt(c, 1, 0) && // p2 reads p1, never p5
			curAt(c, 5, 2) // p6 reads p3, never p4
	}, startSeed, attempts, maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: harvesting γ2: %w", err)
	}
	alpha2 := gamma2.Comm(1, coloring.VarC)
	gamma5, seedB, err := FindSilentConfig(fsys, func(c *model.Config) bool {
		return c.Comm(4, coloring.VarC) == alpha2 &&
			curAt(c, 4, 3) && // p5 reads p4, never p2
			curAt(c, 3, 4) // p4 reads p5, never p6
	}, startSeed+attempts, attempts, maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: harvesting γ5: %w", err)
	}
	cfg := model.NewZeroConfig(fsys)
	for _, p := range []int{0, 1, 2, 5} {
		copyState(cfg, p, gamma2, p)
	}
	for _, p := range []int{3, 4} {
		copyState(cfg, p, gamma5, p)
	}
	demo := &Demo{
		Name:   "thm2-coloring-stitch",
		Frozen: fsys,
		Real:   rsys,
		Config: cfg,
		Legit:  coloring.IsLegitimate,
		SeamP:  1, SeamQ: 4,
	}
	tr := &StitchTrace{Case: "theorem2", SeedA: seedA, SeedB: seedB,
		GammaA: gamma2.Clone(), GammaB: gamma5.Clone()}
	return demo, tr, nil
}
