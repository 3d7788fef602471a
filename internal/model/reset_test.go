package model_test

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// TestSimulatorResetMatchesFresh: a simulator Reset across systems,
// configurations and seeds must replay exactly the computation of a
// freshly constructed simulator — step sequence, rounds, silence
// verdicts and final configuration.
func TestSimulatorResetMatchesFresh(t *testing.T) {
	t.Parallel()
	colSys, err := engine.Build(graph.Cycle(8), engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Star(6)
	misSys, err := engine.Build(g, engine.FamMIS, nil)
	if err != nil {
		t.Fatal(err)
	}

	reused := &model.Simulator{}
	for trial := 0; trial < 6; trial++ {
		sys := colSys
		if trial%2 == 1 {
			sys = misSys // alternate systems to exercise rebinds
		}
		seed := uint64(trial + 1)
		initial := model.NewRandomConfig(sys, rng.New(seed))

		freshLog, reusedLog := &roundLog{}, &roundLog{}
		fresh, err := model.NewSimulator(sys, initial, sched.NewRandomSubset(seed), seed, freshLog)
		if err != nil {
			t.Fatal(err)
		}
		// Reset adopts its configuration, so hand it a private copy.
		if err := reused.Reset(sys, initial.Clone(), sched.NewRandomSubset(seed), seed, reusedLog); err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 60; step++ {
			want := append([]int(nil), fresh.Step()...)
			got := reused.Step()
			if !slices.Equal(want, got) {
				t.Fatalf("trial %d step %d: reset sim selected %v, fresh %v", trial, step, got, want)
			}
			ws, werr := fresh.SilentNow()
			gs, gerr := reused.SilentNow()
			if ws != gs || (werr == nil) != (gerr == nil) {
				t.Fatalf("trial %d step %d: silence verdicts differ (%v,%v) vs (%v,%v)",
					trial, step, ws, werr, gs, gerr)
			}
			if ws {
				break
			}
		}
		if fresh.Rounds() != reused.Rounds() || fresh.Steps() != reused.Steps() {
			t.Fatalf("trial %d: steps/rounds differ: fresh %d/%d, reset %d/%d",
				trial, fresh.Steps(), fresh.Rounds(), reused.Steps(), reused.Rounds())
		}
		if !fresh.Config().Equal(reused.Config()) {
			t.Fatalf("trial %d: final configurations differ", trial)
		}
		if !slices.Equal(freshLog.Ends, reusedLog.Ends) {
			t.Fatalf("trial %d: round boundaries differ", trial)
		}
	}
}

// TestCopyFromShapes: CopyFrom must reuse matching storage (and Equal
// compare in place) and adapt to shape changes. Not parallel: it counts
// allocations.
func TestCopyFromShapes(t *testing.T) {
	colSys, err := engine.Build(graph.Cycle(8), engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := model.NewRandomConfig(colSys, rng.New(5))
	dst := model.NewZeroConfig(colSys)
	if avg := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); avg != 0 {
		t.Fatalf("CopyFrom (same shape) allocates %.1f times per call, want 0", avg)
	}
	if !dst.Equal(src) {
		t.Fatal("CopyFrom (same shape) did not copy values")
	}
	if avg := testing.AllocsPerRun(100, func() { dst.Equal(src) }); avg != 0 {
		t.Fatalf("Equal allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = src.Clone() }); avg > 3 {
		t.Fatalf("Clone allocates %.1f times per call, want at most 3 (the Config and its two flat arrays)", avg)
	}
	dst.SetComm(0, 0, (dst.Comm(0, 0)+1)%3)
	if src.Equal(dst) {
		t.Fatal("CopyFrom aliased the source")
	}

	// Shape change: a wider system's buffer must adapt to the source.
	g := graph.Star(5)
	misSys, err := engine.Build(g, engine.FamMIS, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide := model.NewRandomConfig(misSys, rng.New(6))
	dst.CopyFrom(wide)
	if !dst.Equal(wide) {
		t.Fatal("CopyFrom (shape change) did not adapt")
	}
	if err := dst.Validate(misSys); err != nil {
		t.Fatalf("adapted copy invalid: %v", err)
	}
}

// TestRandomizeConfigMatchesNewRandomConfig: both paths must draw the
// same configuration from the same stream.
func TestRandomizeConfigMatchesNewRandomConfig(t *testing.T) {
	t.Parallel()
	sys, err := engine.Build(graph.Cycle(8), engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := model.NewZeroConfig(sys)
	for seed := uint64(1); seed <= 5; seed++ {
		want := model.NewRandomConfig(sys, rng.New(seed))
		model.RandomizeConfig(sys, buf, rng.New(seed))
		if !buf.Equal(want) {
			t.Fatalf("seed %d: RandomizeConfig differs from NewRandomConfig", seed)
		}
	}
}
