// Package bitset provides a fixed-capacity bitset used by the hot paths
// of the simulator: per-process read sets in the trace recorder and the
// dirty sets of the incremental silence checker. Stdlib only.
package bitset

import "math/bits"

// Set is a fixed-capacity set of small non-negative integers. The zero
// value is an empty set of capacity 0; use New to size it.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set holding values in [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Cap returns the capacity n the set was created with.
func (s *Set) Cap() int { return s.n }

// Add inserts i and reports whether it was newly added.
func (s *Set) Add(i int) bool {
	w, b := i/64, uint64(1)<<(i%64)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	return true
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.words[i/64] &^= uint64(1) << (i % 64)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	return s.words[i/64]&(uint64(1)<<(i%64)) != 0
}

// Count returns the number of elements.
func (s *Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionInto ors the receiver's elements into dst (capacities must match).
func (s *Set) UnionInto(dst *Set) {
	for i, w := range s.words {
		dst.words[i] |= w
	}
}

// OrInto is UnionInto under its conventional bulk-op name: dst |= s,
// word by word (capacities must match).
func (s *Set) OrInto(dst *Set) { s.UnionInto(dst) }

// AndNot removes every element of o from the receiver: s &^= o, word by
// word (capacities must match).
func (s *Set) AndNot(o *Set) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// SubsetOf reports whether every element of the receiver is in o, word
// by word (capacities must match).
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Fill inserts every value in [0, Cap()), making the set full.
func (s *Set) Fill() {
	if s.n == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask the tail word so bits at or above Cap() stay clear (Count,
	// Empty and the word-level bulk ops rely on them being zero).
	if tail := s.n % 64; tail != 0 {
		s.words[len(s.words)-1] = (uint64(1) << tail) - 1
	}
}

// CountRange returns the number of elements in the half-open range
// [lo, hi), clamped to [0, Cap()). It is a popcount over whole words
// with masked boundary words, not a per-element scan.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (lo % 64)
	hiMask := ^uint64(0) >> (63 - (hi-1)%64)
	if loW == hiW {
		return bits.OnesCount64(s.words[loW] & loMask & hiMask)
	}
	total := bits.OnesCount64(s.words[loW] & loMask)
	for wi := loW + 1; wi < hiW; wi++ {
		total += bits.OnesCount64(s.words[wi])
	}
	return total + bits.OnesCount64(s.words[hiW]&hiMask)
}

// ForEach calls fn for every element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Elems appends the elements in ascending order to buf and returns it.
// It is the open-coded twin of ForEach: the word walk is inlined here so
// per-step enumeration (the enabled-set and dirty-set hot paths) pays no
// indirect call per element.
func (s *Set) Elems(buf []int) []int {
	for wi, w := range s.words {
		base := wi * 64
		for w != 0 {
			buf = append(buf, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}
