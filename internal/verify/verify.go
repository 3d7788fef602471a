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
// This package builds those configurations concretely for the frozen
// (♦-1-stable) protocol variants of internal/protocols/frozen, checks
// them (silent + illegitimate = the protocol is not self-stabilizing),
// and runs the *control*: the same configuration under the paper's real
// 1-efficient protocol is not silent, because some process's perpetual
// scan eventually reads across the seam, and the system recovers.
package verify

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Predicate is a protocol legitimacy predicate.
type Predicate func(*model.System, *model.Config) bool

// Demo is one executable impossibility instance: a configuration on a
// network, a frozen (♦-k-stable) system it deadlocks, and the real
// protocol system it cannot fool.
type Demo struct {
	// Name identifies the construction (e.g. "thm1-coloring-7chain").
	Name string
	// Frozen is the system running the ♦-k-stable variant.
	Frozen *model.System
	// Real is the system running the paper's 1-efficient protocol on
	// the same network with the same constants.
	Real *model.System
	// Config is the stitched configuration.
	Config *model.Config
	// Legit is the predicate both protocols should stabilize to.
	Legit Predicate
	// SeamP and SeamQ are the two adjacent processes whose communication
	// states jointly violate the predicate.
	SeamP, SeamQ int
}

// Outcome reports the four checks run on a Demo.
type Outcome struct {
	// FrozenSilent: the stitched configuration is silent under the
	// frozen protocol (the deadlock exists).
	FrozenSilent bool
	// Illegitimate: the stitched configuration violates the predicate.
	Illegitimate bool
	// FrozenImpossible is the impossibility witness:
	// FrozenSilent && Illegitimate means the frozen protocol is not
	// self-stabilizing, as Theorems 1-2 predict for any ♦-k-stable
	// protocol with k < Δ.
	FrozenImpossible bool
	// RealSilent: the same configuration under the real protocol
	// (expected false — a scanning process sees across the seam).
	RealSilent bool
	// RealRecovers: the real protocol converges from the stitched
	// configuration to a legitimate silent configuration.
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
	out.Illegitimate = !d.Legit(d.Frozen, d.Config)
	out.FrozenImpossible = out.FrozenSilent && out.Illegitimate

	realSilent, err := model.CommSilent(d.Real, d.Config)
	if err != nil {
		return out, fmt.Errorf("verify: real silence check: %w", err)
	}
	out.RealSilent = realSilent

	res, err := core.Run(d.Real, d.Config, core.RunOptions{
		Scheduler:  sched.NewRandomSubset(seed),
		Seed:       seed,
		MaxSteps:   maxSteps,
		CheckEvery: 4,
		Legitimate: func(s *model.System, c *model.Config) bool { return d.Legit(s, c) },
	})
	if err != nil {
		return out, fmt.Errorf("verify: recovery run: %w", err)
	}
	out.RealRecovers = res.Silent && res.LegitimateAtSilence
	out.RecoverySteps = res.StepsToSilence
	return out, nil
}

// FindSilentConfig runs the system from random initial configurations
// until reaching a silent configuration satisfying accept, trying
// successive seeds. It is the "let the protocol stabilize, then harvest
// the silent configuration" step of the stitch procedure.
func FindSilentConfig(sys *model.System, accept func(*model.Config) bool, startSeed uint64, attempts, maxSteps int) (*model.Config, uint64, error) {
	for a := 0; a < attempts; a++ {
		seed := startSeed + uint64(a)
		cfg := model.NewRandomConfig(sys, rng.New(rng.Derive(seed, 0xC0)))
		res, err := core.Run(sys, cfg, core.RunOptions{
			Scheduler:  sched.NewRandomSubset(seed),
			Seed:       seed,
			MaxSteps:   maxSteps,
			CheckEvery: 2,
		})
		if err != nil {
			return nil, 0, err
		}
		if res.Silent && accept(res.Final) {
			return res.Final, seed, nil
		}
	}
	return nil, 0, fmt.Errorf("verify: no accepted silent configuration in %d attempts", attempts)
}

// NCWitness is an executable witness of neighbor-completeness
// (Definition 10) for a predicate P: two adjacent processes p, q and two
// *silent* configurations γp, γq such that the communication state of p
// in γp (αp) and of q in γq (αq) cannot coexist legitimately.
type NCWitness struct {
	P, Q           int
	AlphaP, AlphaQ []int
	GammaP, GammaQ *model.Config
}

// FindNCWitness searches executions of the (real, self-stabilizing)
// protocol for a neighbor-completeness witness on the edge (p, q):
// conflict(αp, αq) must report whether the two communication states are
// jointly illegitimate. Definition 10's conditions 1 and 2b (silence of
// γp and γq) hold by construction; condition 2a is re-checked by
// substituting both states into γp and evaluating the predicate.
func FindNCWitness(sys *model.System, legit Predicate, p, q int,
	conflict func(alphaP, alphaQ []int) bool,
	startSeed uint64, attempts, maxSteps int) (*NCWitness, error) {

	if sys.Graph().PortOf(p, q) == 0 {
		return nil, fmt.Errorf("verify: %d and %d are not neighbors", p, q)
	}
	var silents []*model.Config
	for a := 0; a < attempts; a++ {
		seed := startSeed + uint64(a)
		cfg := model.NewRandomConfig(sys, rng.New(rng.Derive(seed, 0xAC)))
		res, err := core.Run(sys, cfg, core.RunOptions{
			Scheduler:  sched.NewRandomSubset(seed),
			Seed:       seed,
			MaxSteps:   maxSteps,
			CheckEvery: 2,
		})
		if err != nil {
			return nil, err
		}
		if !res.Silent {
			continue
		}
		silents = append(silents, res.Final)
		for _, ga := range silents {
			alphaP := commState(sys, ga, p)
			for _, gb := range silents {
				alphaQ := commState(sys, gb, q)
				if conflict(alphaP, alphaQ) {
					w := &NCWitness{
						P: p, Q: q,
						AlphaP: alphaP, AlphaQ: alphaQ,
						GammaP: ga.Clone(), GammaQ: gb.Clone(),
					}
					// Condition 2a: substituting both states yields an
					// illegitimate configuration.
					joint := ga.Clone()
					for v, x := range alphaQ {
						joint.SetComm(q, v, x)
					}
					if legit(sys, joint) {
						continue
					}
					return w, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("verify: no neighbor-completeness witness found in %d attempts", attempts)
}

// commState copies out the communication state of process p in cfg.
func commState(sys *model.System, cfg *model.Config, p int) []int {
	out := make([]int, sys.CommWidth())
	for v := range out {
		out[v] = cfg.Comm(p, v)
	}
	return out
}
