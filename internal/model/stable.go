package model

import (
	"fmt"
	"slices"
)

// EventualReadSets computes, for a communication-silent configuration,
// the exact set of neighbors each process keeps reading forever: the
// analytical counterpart of the suffix measurement behind the paper's
// ♦-(x,k)-stability (Definition 9).
//
// From a silent configuration, each process's local evolution is the
// deterministic orbit of its state under a frozen neighborhood
// (neighbors' communication variables never change again), regardless of
// how the scheduler interleaves processes. The orbit is a ρ shape: a
// finite tail followed by a cycle. Reads performed in the tail happen
// finitely often; the eventual read set is the union of the reads
// performed along the cycle.
//
// An error is returned if cfg is not silent (a communication write or an
// enabled randomized action is encountered while tracing an orbit).
func EventualReadSets(sys *System, cfg *Config) ([][]int, error) {
	out := make([][]int, sys.N())
	for p := 0; p < sys.N(); p++ {
		set, err := eventualReadsOf(sys, cfg, p)
		if err != nil {
			return nil, fmt.Errorf("model: eventual reads of process %d: %w", p, err)
		}
		out[p] = set
	}
	return out, nil
}

func eventualReadsOf(sys *System, cfg *Config, p int) ([]int, error) {
	const maxOrbit = 1 << 16
	comm := append([]int(nil), cfg.commRow(p)...)
	internal := append([]int(nil), cfg.internalRow(p)...)

	firstSeen := make(map[string]int)
	var stateReads [][]int // neighbors read when stepping FROM state i
	agg := newReadAgg(sys)

	for iter := 0; iter < maxOrbit; iter++ {
		key := stateKey(comm, internal)
		if start, seen := firstSeen[key]; seen {
			// Cycle detected: states start..iter-1 repeat forever.
			var union []int
			for _, reads := range stateReads[start:] {
				union = append(union, reads...)
			}
			return sortedSet(union), nil
		}
		firstSeen[key] = iter

		agg.begin()
		c := &Ctx{sys: sys, pre: cfg, p: p, nbr: sys.g.Row(p),
			comm:     append([]int(nil), comm...),
			internal: append([]int(nil), internal...),
			agg:      &agg,
		}
		idx := -1
		for i := range sys.spec.Actions {
			c.beginBody()
			if sys.spec.Actions[i].Guard(c) {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Disabled is a fixed point: the guard evaluations just
			// performed repeat forever.
			return sortedSet(agg.qs), nil
		}
		act := sys.spec.Actions[idx]
		if act.Randomized {
			return nil, fmt.Errorf("enabled randomized action %q: configuration is not silent", act.Name)
		}
		c.inApply = true
		c.beginBody()
		act.Apply(c)
		c.inApply = false
		if !intsEqual(c.comm, comm) {
			return nil, fmt.Errorf("action %q writes communication state: configuration is not silent", act.Name)
		}
		stateReads = append(stateReads, append([]int(nil), agg.qs...))
		comm, internal = c.comm, c.internal
	}
	return nil, fmt.Errorf("orbit exceeded %d states", maxOrbit)
}

// sortedSet returns the distinct members of qs in ascending order.
func sortedSet(qs []int) []int {
	out := append(make([]int, 0, len(qs)), qs...)
	slices.Sort(out)
	return slices.Compact(out)
}

// StabilityProfile summarizes EventualReadSets.
type StabilityProfile struct {
	// ReadSets[p] is the exact eventual read set of process p.
	ReadSets [][]int
	// Stable[k] would be the count for arbitrary k; OneStable counts
	// processes with at most one eventual neighbor (the x of
	// ♦-(x,1)-stability).
	OneStable int
	// SuffixK is the smallest k such that the protocol is ♦-k-stable on
	// this execution's limit (max eventual read-set size).
	SuffixK int
}

// AnalyzeStability computes the exact ♦-stability profile of a silent
// configuration.
func AnalyzeStability(sys *System, cfg *Config) (*StabilityProfile, error) {
	sets, err := EventualReadSets(sys, cfg)
	if err != nil {
		return nil, err
	}
	prof := &StabilityProfile{ReadSets: sets}
	for _, s := range sets {
		if len(s) <= 1 {
			prof.OneStable++
		}
		if len(s) > prof.SuffixK {
			prof.SuffixK = len(s)
		}
	}
	return prof, nil
}
