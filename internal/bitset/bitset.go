// Package bitset provides a fixed-capacity bitset used by the hot paths
// of the simulator: the enabled set of the enabledness tracker and the
// laziest-fair daemon's set of processes it has never selected; the
// graph's connectivity check keeps its visited set in one too. Stdlib
// only.
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

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
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

// Elems appends the elements in ascending order to buf and returns it.
// Per-step enumeration (the enabled-set and dirty-set hot paths) walks
// the words here, with no call per element.
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
