package stats

import (
	"math"
	"testing"
)

// TestStreamMatchesSummarize: the streaming accumulator must agree with
// the batch Summarize on mean, std and CI half-width for
// known-distribution fixtures.
func TestStreamMatchesSummarize(t *testing.T) {
	t.Parallel()
	fixtures := [][]float64{
		{4},
		{1, 2, 3, 4, 5},
		{2.5, 2.5, 2.5, 2.5},
		{0, 100},
		{-3, 7, 11, -19, 0.5, 2.25},
		{1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3}, // Welford's motivating case: catastrophic cancellation
	}
	for _, xs := range fixtures {
		var s Stream
		for _, x := range xs {
			s.Add(x)
		}
		want := Summarize(xs)
		if s.N() != want.N {
			t.Fatalf("%v: N = %d, want %d", xs, s.N(), want.N)
		}
		const tol = 1e-9
		if math.Abs(s.Mean()-want.Mean) > tol*math.Max(1, math.Abs(want.Mean)) {
			t.Errorf("%v: Mean = %g, want %g", xs, s.Mean(), want.Mean)
		}
		if math.Abs(s.Std()-want.Std) > tol*math.Max(1, want.Std) {
			t.Errorf("%v: Std = %g, want %g", xs, s.Std(), want.Std)
		}
		// Not (CI95Hi-CI95Lo)/2: that subtraction cancels at the 1e9
		// offset and would compare against a degraded value.
		wantHalf := 1.96 * want.Std / math.Sqrt(float64(want.N))
		if len(xs) >= 2 && math.Abs(s.CI95Half()-wantHalf) > tol*math.Max(1, wantHalf) {
			t.Errorf("%v: CI95Half = %g, want %g", xs, s.CI95Half(), wantHalf)
		}
	}
}

// TestStreamDegenerate: below two observations no confidence interval
// exists, so CI95Half is +Inf — the property that stops a sequential
// stopping rule from ever firing on a single trial.
func TestStreamDegenerate(t *testing.T) {
	t.Parallel()
	var s Stream
	if !math.IsInf(s.CI95Half(), 1) {
		t.Fatalf("empty stream: CI95Half = %g, want +Inf", s.CI95Half())
	}
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatalf("empty stream not zero: mean %g var %g n %d", s.Mean(), s.Variance(), s.N())
	}
	s.Add(42)
	if !math.IsInf(s.CI95Half(), 1) {
		t.Fatalf("n=1: CI95Half = %g, want +Inf", s.CI95Half())
	}
	if s.Mean() != 42 || s.Variance() != 0 {
		t.Fatalf("n=1: mean %g var %g, want 42, 0", s.Mean(), s.Variance())
	}
}

// TestStreamZeroVariance: identical observations reach half-width 0
// exactly at the second one — a zero-variance cell under sequential
// stopping therefore stops at the rule's minimum trial count, never
// before it.
func TestStreamZeroVariance(t *testing.T) {
	t.Parallel()
	var s Stream
	s.Add(7)
	if s.CI95Half() == 0 {
		t.Fatal("n=1 must not report a zero-width interval")
	}
	s.Add(7)
	if s.CI95Half() != 0 {
		t.Fatalf("n=2 zero-variance: CI95Half = %g, want 0", s.CI95Half())
	}
	s.Add(7)
	if s.CI95Half() != 0 || s.Mean() != 7 {
		t.Fatalf("n=3 zero-variance: half %g mean %g", s.CI95Half(), s.Mean())
	}
}
