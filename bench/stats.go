package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileLadder lists the percentiles a timing may be reported at,
// lowest first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// rank is the nearest-rank index (1-based) of percentile p among n
// sorted samples, computed in tenths of a percent so that p99.9 of
// 10 000 is rank 9 990 and not a rounding error above it.
func rank(n int, p float64) int {
	permille := int(math.Round(p * 10))
	return max((permille*n+999)/1000, 1)
}

// highPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it among n samples — the rule of the
// choosing-metrics guide: 21 samples support p50 and nothing above,
// 40 support p75, 100 support p90. ok is false below 20 samples, where
// no percentile qualifies.
func highPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if n-rank(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// percentile returns the nearest-rank percentile p of xs (0 for an
// empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}
