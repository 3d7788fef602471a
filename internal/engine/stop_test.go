package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

func TestStopRuleString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		rule StopRule
		want string
	}{
		{StopRule{}, "none"},
		{StopRule{HalfWidth: 2, Min: 5, Max: 40}, "ci:2:5..40"},
		{StopRule{HalfWidth: 0.5, Min: 2, Max: 100}, "ci:0.5:2..100"},
	}
	for _, c := range cases {
		if got := c.rule.String(); got != c.want {
			t.Errorf("StopRule%+v.String() = %q, want %q", c.rule, got, c.want)
		}
	}
}

func TestStopRuleWithDefaults(t *testing.T) {
	t.Parallel()
	if got := (StopRule{HalfWidth: 1}).withDefaults(); got.Min != 2 || got.Max != 2 {
		t.Fatalf("unbounded rule not clamped: %+v", got)
	}
	if got := (StopRule{HalfWidth: 1, Min: 10, Max: 3}).withDefaults(); got.Max != 10 {
		t.Fatalf("Max < Min not clamped to Min: %+v", got)
	}
	// A disabled rule normalizes to the zero value regardless of bounds,
	// so the cache fingerprint of every fixed-budget run reads the same.
	if got := (StopRule{Min: 7, Max: 9}).withDefaults(); got != (StopRule{}) {
		t.Fatalf("disabled rule not zeroed: %+v", got)
	}
}

// protoSpec builds family on g into the pair the warm-ups take.
func protoSpec(t testing.TB, g *graph.Graph, family string) ProtoCell {
	t.Helper()
	sys, err := Build(g, family, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ProtoCell{System: sys, Family: family}
}

// runProto is RunCells over the cells protoCells builds from specs.
func runProto(cfg Config, specs []ProtoCell, fold Fold) error {
	cells, err := protoCells(cfg, specs)
	if err != nil {
		return err
	}
	return RunCells(cfg, cells, fold)
}

// syntheticCells builds n pure-function cells whose trial t on cell i
// reports rounds[i](t) rounds-to-silence, without touching a simulator.
func syntheticCells(n int, rounds func(cell, trial int) int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		ci := i
		cells[i] = Cell{
			Key: fmt.Sprintf("synthetic-%d", i),
			Run: func(_ *core.Runner, trial int, seed uint64, res *core.FaultResult) error {
				*res = core.FaultResult{RunResult: core.RunResult{
					Silent:              true,
					LegitimateAtSilence: true,
					StepsToSilence:      rounds(ci, trial) * 3,
					RoundsToSilence:     rounds(ci, trial),
				}}
				return nil
			},
		}
	}
	return cells
}

// realizedCounts folds a RunCells run into per-cell realized trial counts.
func realizedCounts(t *testing.T, cfg Config, cells []Cell) []int {
	t.Helper()
	counts := make([]int, len(cells))
	err := RunCells(cfg, cells, func(cell, trial int, res *core.FaultResult) error {
		counts[cell]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestStopZeroVarianceStopsAtMin: a cell with identical trials tightens
// its interval to zero width at the second trial, so the rule fires at
// exactly Min — never earlier, never later.
func TestStopZeroVarianceStopsAtMin(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 1, Trials: 3, Parallelism: 1,
		Stop: StopRule{HalfWidth: 0.5, Min: 4, Max: 50}}
	counts := realizedCounts(t, cfg, syntheticCells(2, func(cell, trial int) int { return 9 }))
	for i, n := range counts {
		if n != 4 {
			t.Fatalf("zero-variance cell %d realized %d trials, want Min=4", i, n)
		}
	}
}

// TestStopHighVarianceRunsToMax: a cell whose interval never reaches the
// target runs exactly Max trials.
func TestStopHighVarianceRunsToMax(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 1, Parallelism: 1,
		Stop: StopRule{HalfWidth: 0.001, Min: 2, Max: 7}}
	// Alternating 0/1000 keeps the sample variance enormous.
	counts := realizedCounts(t, cfg, syntheticCells(1, func(cell, trial int) int { return (trial % 2) * 1000 }))
	if counts[0] != 7 {
		t.Fatalf("high-variance cell realized %d trials, want Max=7", counts[0])
	}
}

// TestStopAdaptiveCountsPerCell: cells with different variance realize
// different counts in one run, and the counts are invariant across
// Parallelism (cell affinity makes the trial stream per-cell ordered).
func TestStopAdaptiveCountsPerCell(t *testing.T) {
	t.Parallel()
	rounds := func(cell, trial int) int {
		if cell == 0 {
			return 10 // zero variance: stops at Min
		}
		return 10 + (trial%5)*20 // noisy: needs more evidence
	}
	cfg := Config{Seed: 1, Stop: StopRule{HalfWidth: 3, Min: 3, Max: 30}}
	var want []int
	for _, par := range []int{1, 2, 4} {
		cfg.Parallelism = par
		got := realizedCounts(t, cfg, syntheticCells(3, rounds))
		if got[0] != 3 {
			t.Fatalf("parallelism %d: quiet cell realized %d, want Min=3", par, got[0])
		}
		if got[1] <= got[0] {
			t.Fatalf("parallelism %d: noisy cell realized %d, not more than quiet cell's %d", par, got[1], got[0])
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: realized counts %v differ from parallelism 1's %v", par, got, want)
			}
		}
	}
}

// TestStopDisabledMatchesRunCells: with the rule disabled, the fold path
// streams exactly cfg.Trials results per cell, each the result of that
// cell's Run at the contract's seed on a Runner of its own — same
// trials, same seeds, same outcomes — on real protocol cells.
func TestStopDisabledMatchesRunCells(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 2009, Trials: 4, MaxSteps: 100_000, Parallelism: 2}
	specs := []ProtoCell{
		protoSpec(t, graph.Path(6), FamColoring),
		protoSpec(t, graph.Cycle(5), FamMIS),
	}
	type key struct{ cell, trial int }
	var mu sync.Mutex
	folded := map[key]core.RunResult{}
	err := runProto(cfg, specs, func(cell, trial int, res *core.FaultResult) error {
		mu.Lock()
		folded[key{cell, trial}] = core.RunResult{
			Silent:              res.Silent,
			LegitimateAtSilence: res.LegitimateAtSilence,
			StepsToSilence:      res.StepsToSilence,
			RoundsToSilence:     res.RoundsToSilence,
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != len(specs)*cfg.Trials {
		t.Fatalf("fold saw %d trials, want %d", len(folded), len(specs)*cfg.Trials)
	}
	cells, err := protoCells(cfg.WithDefaults(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for k, got := range folded {
		want := &core.FaultResult{}
		seed := rng.Derive(rng.DeriveString(cfg.Seed, cells[k.cell].Key), uint64(k.trial))
		if err := cells[k.cell].Run(core.NewRunner(), k.trial, seed, want); err != nil {
			t.Fatal(err)
		}
		if got.Silent != want.Silent || got.LegitimateAtSilence != want.LegitimateAtSilence ||
			got.StepsToSilence != want.StepsToSilence || got.RoundsToSilence != want.RoundsToSilence {
			t.Fatalf("cell %d trial %d: fold %+v != one-shot %+v", k.cell, k.trial, got, want.RunResult)
		}
	}
}

// TestObserverEventStreamDeterministic: the canonical event log of a
// RunCells run over real protocol cells is byte-identical across
// Parallelism values — the contract the CLI's -events flag rests on.
func TestObserverEventStreamDeterministic(t *testing.T) {
	t.Parallel()
	specs := []ProtoCell{
		protoSpec(t, graph.Path(6), FamColoring),
		protoSpec(t, graph.Cycle(5), FamMIS),
		protoSpec(t, graph.Path(5), FamBFSTree),
	}
	var want []byte
	for _, par := range []int{1, 4} {
		sink := obs.NewReplaySink()
		cfg := Config{Seed: 2009, Trials: 3, MaxSteps: 100_000, Parallelism: par, Observer: sink}
		err := runProto(cfg, specs, func(cell, trial int, res *core.FaultResult) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteCanonical(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("observed run wrote an empty canonical log")
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("parallelism %d event log differs from parallelism 1", par)
		}
	}
}
