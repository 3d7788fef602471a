package bitset

import (
	"testing"
)

func TestAddHasRemove(t *testing.T) {
	t.Parallel()
	s := New(130)
	if len(s.Elems(nil)) != 0 || s.Cap() != 130 {
		t.Fatal("fresh set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if !s.Add(i) {
			t.Fatalf("Add(%d) reported already present", i)
		}
		if s.Add(i) {
			t.Fatalf("second Add(%d) reported newly added", i)
		}
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if len(s.Elems(nil)) != 8 {
		t.Fatalf("Count = %d, want 8", len(s.Elems(nil)))
	}
	s.Remove(64)
	if s.Has(64) || len(s.Elems(nil)) != 7 {
		t.Fatal("Remove(64) did not remove")
	}
	s.Clear()
	if len(s.Elems(nil)) != 0 {
		t.Fatal("Clear left elements")
	}
}

func TestForEachAndElems(t *testing.T) {
	t.Parallel()
	s := New(200)
	want := []int{3, 64, 70, 199}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elems(nil)
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

// randomSet builds a set plus its naive []bool mirror from a cheap
// deterministic LCG (the package cannot import internal/rng: rng's
// subset sampler is a bitset client).
func randomSet(n int, seed uint64) (*Set, []bool) {
	s, mirror := New(n), make([]bool, n)
	state := seed
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		if state>>63 == 1 {
			s.Add(i)
			mirror[i] = true
		}
	}
	return s, mirror
}

// TestBulkOpsMatchNaive: SubsetOf agrees with the element-by-element
// loop over every word-boundary-straddling capacity.
func TestBulkOpsMatchNaive(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, 200} {
		for seed := uint64(1); seed <= 5; seed++ {
			a, am := randomSet(n, seed)
			b, bm := randomSet(n, seed*977+13)
			subset := true
			for i := 0; i < n; i++ {
				subset = subset && (!am[i] || bm[i])
			}
			if got := a.SubsetOf(b); got != subset {
				t.Fatalf("n=%d seed=%d: a.SubsetOf(b) = %v, want %v", n, seed, got, subset)
			}
			if !a.SubsetOf(a) {
				t.Fatalf("n=%d seed=%d: SubsetOf misses a ⊆ a", n, seed)
			}
		}
	}
}
