package rng

import (
	"slices"
	"testing"
)

// FuzzAppendSubsetNonEmpty checks the scheduler-hot subset sampler
// against its contract for arbitrary seeds, set sizes and destination
// prefixes: the prefix is preserved, at least one element is appended,
// every appended element lies in [0, n) in strictly increasing order,
// and the draw is a pure function of the generator state (replaying the
// seed reproduces it exactly, with or without a preallocated buffer).
// AppendSubsetMaskNonEmpty on the same seed must draw the same elements
// as a mask of ⌈n/64⌉ words with no bit at or above n, and leave the
// stream where the list form leaves it.
func FuzzAppendSubsetNonEmpty(f *testing.F) {
	f.Add(uint64(1), 10, 3)
	f.Add(uint64(42), 1, 0)
	f.Add(uint64(3), 63, 2)
	f.Add(uint64(2009), 64, 7)
	f.Add(uint64(7), 65, 1)
	f.Add(uint64(0), 128, 0)
	f.Add(uint64(11), 130, 5)
	f.Fuzz(func(t *testing.T, seed uint64, n, prefixLen int) {
		if n <= 0 || n > 1<<12 {
			t.Skip()
		}
		prefixLen &= 0xF
		dst := make([]int, prefixLen)
		for i := range dst {
			dst[i] = -7 // sentinel outside any valid subset
		}
		out := New(seed).AppendSubsetNonEmpty(dst, n)
		if len(out) <= prefixLen {
			t.Fatalf("n=%d: nothing appended (len %d, prefix %d)", n, len(out), prefixLen)
		}
		for i := 0; i < prefixLen; i++ {
			if out[i] != -7 {
				t.Fatalf("n=%d: prefix clobbered at %d: %v", n, i, out[:prefixLen])
			}
		}
		appended := out[prefixLen:]
		prev := -1
		for _, v := range appended {
			if v < 0 || v >= n {
				t.Fatalf("n=%d: element %d outside [0,%d)", n, v, n)
			}
			if v <= prev {
				t.Fatalf("n=%d: not strictly increasing: %v", n, appended)
			}
			prev = v
		}
		list := New(seed)
		replay := list.AppendSubsetNonEmpty(nil, n)
		if !slices.Equal(replay, appended) {
			t.Fatalf("n=%d: replay %v differs from %v", n, replay, appended)
		}
		masked := New(seed)
		mask := masked.AppendSubsetMaskNonEmpty(make([]uint64, prefixLen), n)
		if len(mask) != prefixLen+(n+63)/64 {
			t.Fatalf("n=%d: mask of %d words after a prefix of %d", n, len(mask), prefixLen)
		}
		var elems []int
		for j, w := range mask[prefixLen:] {
			for b := range 64 {
				if w&(1<<b) != 0 {
					elems = append(elems, j*64+b)
				}
			}
		}
		if !slices.Equal(elems, appended) {
			t.Fatalf("n=%d: mask holds %v, list %v", n, elems, appended)
		}
		if a, b := list.Uint64(), masked.Uint64(); a != b {
			t.Fatalf("n=%d: the two forms leave the stream at different positions (%#x, %#x)", n, a, b)
		}
	})
}
