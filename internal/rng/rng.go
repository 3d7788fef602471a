// Package rng provides small, deterministic, splittable pseudo-random
// number generators used throughout the simulator.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every run is fully determined by a single uint64 seed, and independent
// streams (one per process, one per scheduler, one per experiment trial)
// are derived by hashing the parent seed with a stream label, so adding a
// new consumer never perturbs existing streams.
//
// The implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) used
// both as a generator and as a seed-derivation hash. Only the standard
// library is used.
package rng

import "math/bits"

// golden is the 64-bit golden ratio constant used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output permutation: a strong 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive deterministically derives a child seed from a parent seed and a
// stream label. Distinct labels give statistically independent streams.
func Derive(parent uint64, label uint64) uint64 {
	return mix64(parent + golden*(label+1))
}

// DeriveString derives a child seed from a parent seed and a string label
// using an FNV-1a fold of the label.
func DeriveString(parent uint64, label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return Derive(parent, h)
}

// Source is the minimal generator interface used by the simulator.
type Source interface {
	// Uint64 returns the next 64 pseudo-random bits.
	Uint64() uint64
}

// SplitMix is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0.
type SplitMix struct {
	state uint64
}

// NewSplitMix returns a SplitMix64 generator with the given seed.
func NewSplitMix(seed uint64) *SplitMix {
	return &SplitMix{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *SplitMix) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Reseed resets the generator to the state of a fresh NewSplitMix(seed),
// reusing the allocation. A reseeded generator emits exactly the stream
// of a newly constructed one, which is what lets the step engine reuse a
// single generator across processes without perturbing determinism.
func (s *SplitMix) Reseed(seed uint64) { s.state = seed }

// Rand wraps a Source with convenience samplers. All methods are
// deterministic functions of the underlying stream.
type Rand struct {
	src  Source
	mask []uint64 // AppendSubsetNonEmpty's scratch mask
}

// New returns a Rand over a fresh SplitMix64 stream with the given seed.
func New(seed uint64) *Rand {
	return &Rand{src: NewSplitMix(seed)}
}

// FromSource wraps an existing source.
func FromSource(src Source) *Rand {
	return &Rand{src: src}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling is used to avoid modulo
// bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

func (r *Rand) boundedUint64(n uint64) uint64 {
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	hi, lo := bits.Mul64(r.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.src.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SubsetNonEmpty returns a uniformly chosen non-empty subset of [0, n),
// as a sorted slice of indices. It panics if n <= 0.
//
// The n membership bits are drawn 64 at a time — this sits on the
// scheduler's per-step hot path (sched.RandomSubset), where drawing one
// generator word per process dominated the selection cost.
func (r *Rand) SubsetNonEmpty(n int) []int {
	return r.AppendSubsetNonEmpty(nil, n)
}

// AppendSubsetNonEmpty appends a uniformly chosen non-empty subset of
// [0, n) to dst, in ascending order, and returns the extended slice: the
// elements of the mask AppendSubsetMaskNonEmpty draws, from the same
// stream. It draws exactly the stream of SubsetNonEmpty, so callers can
// switch to a reused buffer (dst[:0]) without perturbing determinism. It
// panics if n <= 0.
func (r *Rand) AppendSubsetNonEmpty(dst []int, n int) []int {
	r.mask = r.AppendSubsetMaskNonEmpty(r.mask[:0], n)
	for j, w := range r.mask {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, j<<6|bits.TrailingZeros64(w))
		}
	}
	return dst
}

// AppendSubsetMaskNonEmpty appends a uniformly chosen non-empty subset of
// [0, n) to dst as a bitmask of ⌈n/64⌉ words, bit i&63 of word i>>6 set
// when i is in the subset and no bit at or above n, and returns the
// extended slice. The n membership bits are drawn 64 at a time, one
// generator word per mask word, and an empty subset is drawn again. It
// panics if n <= 0.
func (r *Rand) AppendSubsetMaskNonEmpty(dst []uint64, n int) []uint64 {
	if n <= 0 {
		panic("rng: SubsetNonEmpty called with non-positive n")
	}
	for {
		out, or := dst, uint64(0)
		for base := 0; base < n; base += 64 {
			w := r.src.Uint64()
			if k := n - base; k < 64 {
				w &= 1<<k - 1
			}
			out = append(out, w)
			or |= w
		}
		if or != 0 {
			return out
		}
	}
}
