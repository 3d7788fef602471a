package bitset

import (
	"testing"
)

func TestAddHasRemove(t *testing.T) {
	t.Parallel()
	s := New(130)
	if !s.Empty() || s.Count() != 0 || s.Cap() != 130 {
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
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 7 {
		t.Fatal("Remove(64) did not remove")
	}
	s.Clear()
	if !s.Empty() {
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

func TestUnionInto(t *testing.T) {
	t.Parallel()
	a, b := New(100), New(100)
	a.Add(1)
	a.Add(99)
	b.Add(2)
	a.UnionInto(b)
	for _, i := range []int{1, 2, 99} {
		if !b.Has(i) {
			t.Fatalf("union missing %d", i)
		}
	}
	if b.Count() != 3 {
		t.Fatalf("union Count = %d, want 3", b.Count())
	}
	if !a.Has(1) || a.Count() != 2 {
		t.Fatal("UnionInto mutated the receiver")
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

// TestBulkOpsMatchNaive: AndNot, OrInto, SubsetOf and Fill agree with the
// element-by-element loops over every word-boundary-straddling capacity.
func TestBulkOpsMatchNaive(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, 200} {
		for seed := uint64(1); seed <= 5; seed++ {
			a, am := randomSet(n, seed)
			b, bm := randomSet(n, seed*977+13)

			andNot := New(n)
			for i := 0; i < n; i++ {
				if am[i] {
					andNot.Add(i)
				}
			}
			andNot.AndNot(b)
			for i := 0; i < n; i++ {
				if want := am[i] && !bm[i]; andNot.Has(i) != want {
					t.Fatalf("n=%d seed=%d: AndNot at %d = %v, want %v", n, seed, i, andNot.Has(i), want)
				}
			}

			or := New(n)
			for i := 0; i < n; i++ {
				if bm[i] {
					or.Add(i)
				}
			}
			a.OrInto(or)
			for i := 0; i < n; i++ {
				if want := am[i] || bm[i]; or.Has(i) != want {
					t.Fatalf("n=%d seed=%d: OrInto at %d = %v, want %v", n, seed, i, or.Has(i), want)
				}
			}

			subset := true
			for i := 0; i < n; i++ {
				subset = subset && (!am[i] || bm[i])
			}
			if got := a.SubsetOf(b); got != subset {
				t.Fatalf("n=%d seed=%d: a.SubsetOf(b) = %v, want %v", n, seed, got, subset)
			}
			// or holds a ∪ b, andNot holds a \ b: supersets and subsets
			// of a by construction.
			if !a.SubsetOf(or) || !andNot.SubsetOf(a) || !a.SubsetOf(a) {
				t.Fatalf("n=%d seed=%d: SubsetOf misses a ⊆ a ∪ b, a \\ b ⊆ a or a ⊆ a", n, seed)
			}

			full := New(n)
			full.Fill()
			if full.Count() != n {
				t.Fatalf("n=%d: Fill Count = %d, want %d", n, full.Count(), n)
			}
			full.AndNot(full)
			if !full.Empty() {
				t.Fatalf("n=%d: s.AndNot(s) left elements", n)
			}
		}
	}
}

// TestCountRangeMatchesNaive: CountRange equals the per-element count
// for every (lo, hi) pair over capacities straddling word boundaries,
// including inverted and out-of-range bounds.
func TestCountRangeMatchesNaive(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 63, 64, 65, 130} {
		for seed := uint64(1); seed <= 3; seed++ {
			s, mirror := randomSet(n, seed)
			for lo := -2; lo <= n+2; lo++ {
				for hi := -2; hi <= n+2; hi++ {
					want := 0
					for i := max(lo, 0); i < min(hi, n); i++ {
						if mirror[i] {
							want++
						}
					}
					if got := s.CountRange(lo, hi); got != want {
						t.Fatalf("n=%d seed=%d: CountRange(%d,%d) = %d, want %d", n, seed, lo, hi, got, want)
					}
				}
			}
		}
	}
}
