package stats

import "math"

// Stream is a streaming mean/variance accumulator (Welford's online
// algorithm): the constant-space form of Summarize's moment statistics,
// used where samples are folded one at a time and never retained — the
// engine's sequential trial stopping and the campaign table's
// confidence-interval columns.
type Stream struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations folded so far.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance; with fewer than two
// observations it is 0, matching Summary.Std's convention.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Variance()) }

// CI95Half returns the half-width of the normal-approximation 95%
// confidence interval on the mean: 1.96·s/√n, the same z-interval
// Summarize reports as CI95Lo/CI95Hi. With fewer than two observations
// the interval is undefined and the half-width is +Inf — a sequential
// stopping rule can therefore never fire before the second trial, and a
// zero-variance sample reaches half-width 0 exactly at n == 2.
func (s *Stream) CI95Half() float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}
