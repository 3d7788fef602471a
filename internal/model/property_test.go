package model_test

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
)

// TestSingletonStepEquivalence: executing a singleton selection through
// ref.Step must produce exactly the same configuration as the direct
// StepProcess entry point used by external runtimes.
func TestSingletonStepEquivalence(t *testing.T) {
	r := rng.New(51)
	g := graph.Cycle(7)
	sys := mustSystem(t, g, copySpec(), nil)
	check := func(rawP, rawSeed uint8) bool {
		p := int(rawP) % sys.N()
		cfgA := model.NewRandomConfig(sys, rng.New(uint64(rawSeed)))
		cfgB := cfgA.Clone()
		ref.Step(sys, cfgA, []int{p}, 0, nil, nil)
		model.StepProcess(sys, cfgB, p, nil)
		return cfgA.Equal(cfgB)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

// TestStepsPreserveDomains: whatever the scheduler does, every variable
// stays within its declared domain.
func TestStepsPreserveDomains(t *testing.T) {
	g := graph.Grid(3, 3)
	sys := mustSystem(t, g, copySpec(), nil)
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		cfg := model.NewRandomConfig(sys, r)
		for step := 0; step < 30; step++ {
			sel := r.SubsetNonEmpty(sys.N())
			ref.Step(sys, cfg, sel, step, nil, nil)
			if err := cfg.Validate(sys); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSilenceClosedUnderExecution: if CommSilent accepts a
// configuration then no schedule can ever change its communication part — the
// soundness direction of the decision procedure, validated empirically.
func TestSilenceClosedUnderExecution(t *testing.T) {
	g := graph.Cycle(6)
	sys := mustSystem(t, g, copySpec(), nil)
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		cfg := model.NewRandomConfig(sys, r)
		silent, err := model.CommSilent(sys, cfg)
		if err != nil {
			return false
		}
		if !silent {
			return true // vacuous for this draw
		}
		snap := cfg.Clone()
		for step := 0; step < 60; step++ {
			ref.Step(sys, cfg, r.SubsetNonEmpty(sys.N()), step, nil, nil)
			if !cfg.CommEqual(snap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestNonSilenceIsReachable: if CommSilent rejects a configuration,
// some schedule changes the communication state — the completeness direction,
// validated by running each process solo (the schedule the proof uses).
func TestNonSilenceIsReachable(t *testing.T) {
	g := graph.Path(5)
	sys := mustSystem(t, g, copySpec(), nil)
	check := func(seed uint16) bool {
		cfg := model.NewRandomConfig(sys, rng.New(uint64(seed)))
		silent, err := model.CommSilent(sys, cfg)
		if err != nil {
			return false
		}
		if silent {
			return true // vacuous
		}
		// Run each process alone for enough local steps; some process
		// must change its communication state.
		for p := 0; p < sys.N(); p++ {
			probe := cfg.Clone()
			for i := 0; i < 32; i++ {
				model.StepProcess(sys, probe, p, nil)
				if !probe.CommEqual(cfg) {
					return true
				}
			}
		}
		return false
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointSelectionsCommute: for selections of non-adjacent
// processes, executing them in one step equals executing them one at a
// time (locality of the model).
func TestDisjointSelectionsCommute(t *testing.T) {
	g := graph.Path(6)
	sys := mustSystem(t, g, copySpec(), nil)
	check := func(seed uint16) bool {
		cfg := model.NewRandomConfig(sys, rng.New(uint64(seed)))
		// Processes 0, 3, 5 are pairwise non-adjacent on a 6-path.
		sel := []int{0, 3, 5}
		together := cfg.Clone()
		ref.Step(sys, together, sel, 0, nil, nil)
		oneByOne := cfg.Clone()
		for _, p := range sel {
			ref.Step(sys, oneByOne, []int{p}, 0, nil, nil)
		}
		return together.Equal(oneByOne)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
