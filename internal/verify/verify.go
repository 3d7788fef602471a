// Package verify makes the paper's impossibility results (Section 4)
// executable.
//
// Theorem 1 (anonymous networks) and Theorem 2 (rooted dag-oriented
// networks) show that no ♦-k-stable (k < Δ) protocol can self-stabilize
// to a neighbor-complete predicate: take two silent executions, cut out
// the states around two processes that eventually stop reading one
// neighbor, and stitch them into a configuration that is silent — nobody
// ever reads across the seam — yet violates the predicate at the seam.
//
// This package finds those configurations by exhaustive search for the
// frozen (♦-1-stable) protocol variants of internal/protocols/frozen: a
// row declares the network, the protocol family and its constants, both
// systems come from the engine's family table, and the row's witness is
// the first silent configuration of the frozen system that violates the
// predicate its spec carries. It checks them (silent + illegitimate = the
// protocol is not self-stabilizing) and runs the *control*: the same
// configuration under the paper's real 1-efficient protocol is not
// silent, because some process's perpetual scan eventually reads across
// the seam, and the system recovers. The same search, run on the real
// protocols, proves on each small network that they have no silent
// illegitimate configuration at all.
package verify

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/sched"
)

// Demo is one executable impossibility instance: a configuration on a
// network, a frozen (♦-k-stable) system it deadlocks, and the real
// protocol system it cannot fool.
type Demo struct {
	// Name identifies the construction (e.g. "thm1-coloring-7chain").
	Name string
	// Frozen is the system running the ♦-k-stable variant.
	Frozen *model.System
	// Real is the system running the paper's 1-efficient protocol on
	// the same network with the same constants. Both specs carry the
	// predicate the protocols should stabilize to.
	Real *model.System
	// Config is the searched (or stitched) configuration.
	Config *model.Config
}

// illegitimate reports whether cfg violates the demo's predicate.
func (d *Demo) illegitimate(cfg *model.Config) bool {
	return !model.Legitimate(d.Real, cfg)
}

// Outcome reports the four checks run on a Demo.
type Outcome struct {
	// FrozenSilent: the configuration is silent under the frozen
	// protocol (the deadlock exists).
	FrozenSilent bool
	// Illegitimate: the configuration violates the predicate.
	Illegitimate bool
	// FrozenImpossible is the impossibility witness:
	// FrozenSilent && Illegitimate means the frozen protocol is not
	// self-stabilizing, as Theorems 1-2 predict for any ♦-k-stable
	// protocol with k < Δ.
	FrozenImpossible bool
	// RealSilent: the same configuration under the real protocol
	// (expected false — a scanning process sees across the seam).
	RealSilent bool
	// RealRecovers: the real protocol converges from the configuration
	// to a legitimate silent configuration.
	RealRecovers bool
	// RecoverySteps is the step count of the recovery run.
	RecoverySteps int
}

// Check runs the four checks of the demonstration.
func (d *Demo) Check(seed uint64, maxSteps int) (Outcome, error) {
	var out Outcome
	frozenSilent, err := model.CommSilent(d.Frozen, d.Config)
	if err != nil {
		return out, fmt.Errorf("verify: frozen silence check: %w", err)
	}
	out.FrozenSilent = frozenSilent
	out.Illegitimate = d.illegitimate(d.Config)
	out.FrozenImpossible = out.FrozenSilent && out.Illegitimate

	realSilent, err := model.CommSilent(d.Real, d.Config)
	if err != nil {
		return out, fmt.Errorf("verify: real silence check: %w", err)
	}
	out.RealSilent = realSilent

	res, err := core.Run(d.Real, d.Config, core.RunOptions{
		Scheduler: sched.NewRandomSubset(seed),
		Seed:      seed,
		MaxSteps:  maxSteps,
	})
	if err != nil {
		return out, fmt.Errorf("verify: recovery run: %w", err)
	}
	out.RealRecovers = res.Silent && res.LegitimateAtSilence
	out.RecoverySteps = res.StepsToSilence
	return out, nil
}

// frozenOf names the frozen (♦-1-stable) variant of each of the paper's
// protocol families.
var frozenOf = map[string]string{
	engine.FamColoring: engine.FamFrozen,
	engine.FamMIS:      engine.FamMISFrozen,
	engine.FamMatching: engine.FamMatchingFrozen,
}

// row declares one witness: a name, a network, one of the paper's
// protocol families and, for MIS and MATCHING, the local identifiers
// (greedy when nil). What it declares is what is checked; the
// configuration is searched.
type row struct {
	name   string
	g      *graph.Graph
	family string
	colors []int
	// stitch, when set, builds the configuration by a proof's
	// cut-and-stitch procedure instead of the row's own search.
	stitch func(*Demo) (*model.Config, error)
}

// demo builds the row's frozen and real systems from the family table,
// on one network with one set of constants, without a configuration.
func (r row) demo() (*Demo, error) {
	d := &Demo{Name: r.name}
	var errFrozen, errReal error
	d.Frozen, errFrozen = engine.Build(r.g, frozenOf[r.family], r.colors)
	d.Real, errReal = engine.Build(r.g, r.family, r.colors)
	if err := errors.Join(errFrozen, errReal); err != nil {
		return nil, err
	}
	return d, nil
}

// witnesses builds each row's Demo with its configuration: the stitch,
// or else the first silent configuration of the frozen system that
// violates the predicate.
func witnesses(rows []row) ([]*Demo, error) {
	demos := make([]*Demo, len(rows))
	for i, r := range rows {
		d, err := r.demo()
		if err != nil {
			return nil, err
		}
		if r.stitch != nil {
			d.Config, err = r.stitch(d)
		} else {
			d.Config, err = find(d.Frozen, d.illegitimate, r.name)
		}
		if err != nil {
			return nil, err
		}
		demos[i] = d
	}
	return demos, nil
}

// find is firstSilent with "none" as an error: the caller needs a
// configuration.
func find(sys *model.System, accept func(*model.Config) bool, what string) (*model.Config, error) {
	cfg, err := firstSilent(sys, accept, searchBudget)
	if err == nil && cfg == nil {
		err = errors.New("no such silent configuration exists")
	}
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %w", what, err)
	}
	return cfg, nil
}

// TheoremOne returns E7's Theorem 1 witnesses on anonymous networks:
// frozen COLORING on the 7- and 5-chains (Figure 1) and the spiders of
// Δ = 2..4 (Figure 2), frozen MIS and MATCHING on chains, and last the
// proof's own cut-and-stitch procedure onto the 7-chain.
//
// The MIS row's local identifiers are [1 2 1 2 3]: under the greedy
// [1 2 1 2 1] the frozen MIS has no silent illegitimate configuration on
// the 5-chain, which the search proves.
func TheoremOne() ([]*Demo, error) {
	chain := graph.TheoremOneChain()
	rows := []row{
		{name: "thm1-coloring-7chain", g: graph.TheoremOneStitched(), family: engine.FamColoring},
		{name: "thm1-coloring-5chain", g: chain, family: engine.FamColoring},
		{name: "thm1-mis-5chain", g: chain, family: engine.FamMIS, colors: []int{1, 2, 1, 2, 3}},
		{name: "thm1-matching-6chain", g: graph.Path(6), family: engine.FamMatching},
	}
	for delta := 2; delta <= 4; delta++ {
		rows = append(rows, row{name: fmt.Sprintf("thm1-coloring-spider-%d", delta), g: graph.TheoremOneSpider(delta), family: engine.FamColoring})
	}
	return witnesses(append(rows, row{name: "thm1-coloring-stitch-mirror7", g: graph.TheoremOneStitched(), family: engine.FamColoring, stitch: stitchMirror7}))
}

// TheoremTwo returns E8's Theorem 2 witnesses on the rooted dag-oriented
// network of Figure 3: frozen COLORING's first silent illegitimate
// configuration there, and the proof's stitch (Figure 4 (c)).
func TheoremTwo() ([]*Demo, error) {
	g := graph.TheoremTwoNetwork().Graph
	return witnesses([]row{
		{name: "thm2-coloring-dag", g: g, family: engine.FamColoring},
		{name: "thm2-coloring-stitch", g: g, family: engine.FamColoring, stitch: stitchTheorem2},
	})
}

// stitchMirror7 runs the cut-and-stitch procedure of Theorem 1's proof
// against frozen COLORING on the anonymous 5-chain p1..p5 (ids 0..4),
// for d's 7-chain:
//
//  1. γA is a silent configuration in which p3 has stopped reading p4
//     (cur.p3 rests on p2);
//  2. γB is a silent configuration in which p4 carries p3's γA color α3
//     and rests on p3, so it has stopped reading p5: the case of the
//     proof that needs the mirrored 7-chain (Figure 1 (c));
//  3. splice7 transplants the process states; nobody reads across the
//     seam {p'3, p'4}, so the result is silent yet monochromatic there.
func stitchMirror7(d *Demo) (*model.Config, error) {
	src, err := row{g: graph.TheoremOneChain(), family: engine.FamColoring}.demo()
	if err != nil {
		return nil, err
	}
	gammaA, err := find(src.Frozen, func(c *model.Config) bool {
		return c.Internal(2, coloring.VarCur) == 0
	}, "γA")
	if err != nil {
		return nil, err
	}
	alpha3 := gammaA.Comm(2, coloring.VarC)
	gammaB, err := find(src.Frozen, func(c *model.Config) bool {
		return c.Comm(3, coloring.VarC) == alpha3 && c.Internal(3, coloring.VarCur) == 0
	}, "γB")
	if err != nil {
		return nil, err
	}
	cfg := model.NewZeroConfig(d.Frozen)
	splice7(cfg, gammaA, gammaB)
	return cfg, nil
}

// splice7 writes the Figure 1 (c) stitch of two 5-chain COLORING
// configurations into dst on the 7-chain: p'1..p'3 take p1..p3 from γA
// as they are, p'4..p'7 take p4, p3, p2, p1 from γB mirrored, which on a
// path swaps the two ports of an interior process.
func splice7(dst, gammaA, gammaB *model.Config) {
	for p := 0; p <= 2; p++ {
		copyState(dst, p, gammaA, p)
	}
	for i, src := range []int{3, 2, 1, 0} {
		dp := 3 + i
		copyState(dst, dp, gammaB, src)
		if src >= 1 {
			dst.SetInternal(dp, coloring.VarCur, 1-gammaB.Internal(src, coloring.VarCur))
		}
	}
}

// stitchTheorem2 runs the Theorem 2 stitch on d's rooted dag-oriented
// network of Figure 3 (p1..p6 are ids 0..5): γ2 is silent with p2
// reading p1, never p5, and p6 reading p3, never p4; γ5 is silent with
// p5 carrying p2's γ2 color and reading p4, never p2, while p4 reads p5,
// never p6. {p1, p2, p3, p6} from γ2 and {p4, p5} from γ5 make Figure 4
// (c), with the seam {p2, p5}.
func stitchTheorem2(d *Demo) (*model.Config, error) {
	g := d.Frozen.Graph()
	curAt := func(c *model.Config, p, q int) bool {
		return c.Internal(p, coloring.VarCur) == g.PortOf(p, q)-1
	}
	gamma2, err := find(d.Frozen, func(c *model.Config) bool {
		return curAt(c, 1, 0) && curAt(c, 5, 2)
	}, "γ2")
	if err != nil {
		return nil, err
	}
	alpha2 := gamma2.Comm(1, coloring.VarC)
	gamma5, err := find(d.Frozen, func(c *model.Config) bool {
		return c.Comm(4, coloring.VarC) == alpha2 && curAt(c, 4, 3) && curAt(c, 3, 4)
	}, "γ5")
	if err != nil {
		return nil, err
	}
	cfg := gamma2.Clone()
	for _, p := range []int{3, 4} {
		copyState(cfg, p, gamma5, p)
	}
	return cfg, nil
}

// copyState gives process dp of dst the COLORING state of sp in src.
func copyState(dst *model.Config, dp int, src *model.Config, sp int) {
	dst.SetComm(dp, coloring.VarC, src.Comm(sp, coloring.VarC))
	dst.SetInternal(dp, coloring.VarCur, src.Internal(sp, coloring.VarCur))
}
