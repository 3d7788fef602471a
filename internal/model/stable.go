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
// From a silent configuration, each process's local evolution is its
// frozen-neighborhood orbit (see orbitProbe), however the scheduler
// interleaves processes: a finite tail into a cycle or into a disabled
// state. Reads performed in the tail happen finitely often; the eventual
// read set is the union of the reads along the cycle, or of the guard
// evaluation that finds the final state disabled. Once the walker has
// found the cycle, it is walked once more with reads recorded.
//
// An error is returned if cfg is not silent (a communication write or an
// enabled randomized action is encountered while walking an orbit).
func EventualReadSets(sys *System, cfg *Config) ([][]int, error) {
	var o orbitProbe
	o.bind(sys)
	agg := newReadAgg(sys)
	c := &o.ctx
	out := make([][]int, sys.N())
	for p := 0; p < sys.N(); p++ {
		silent, period, err := o.walk(cfg, p)
		if err == nil && !silent {
			err = fmt.Errorf("configuration is not silent")
		}
		if err != nil {
			return nil, fmt.Errorf("model: eventual reads of process %d: %w", p, err)
		}
		agg.begin(p)
		c.agg = &agg
		if period == 0 {
			firstEnabled(c)
		}
		for range period {
			o.transition(cfg, p)
		}
		out[p] = make([]int, len(agg.arcs))
		for i, a := range agg.arcs {
			out[p][i] = sys.g.ArcHead(a)
		}
		slices.Sort(out[p])
	}
	return out, nil
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
