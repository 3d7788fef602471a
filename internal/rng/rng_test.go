package rng

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeriveDistinctLabels(t *testing.T) {
	seen := make(map[uint64]uint64)
	for label := uint64(0); label < 10000; label++ {
		s := Derive(42, label)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Derive collision: labels %d and %d both map to %d", prev, label, s)
		}
		seen[s] = label
	}
}

func TestDeriveDeterministic(t *testing.T) {
	if Derive(1, 2) != Derive(1, 2) {
		t.Fatal("Derive is not deterministic")
	}
	if Derive(1, 2) == Derive(1, 3) {
		t.Fatal("Derive ignores label")
	}
	if Derive(1, 2) == Derive(2, 2) {
		t.Fatal("Derive ignores parent")
	}
}

func TestDeriveString(t *testing.T) {
	a := DeriveString(7, "scheduler")
	b := DeriveString(7, "process")
	if a == b {
		t.Fatal("DeriveString gave equal seeds for distinct labels")
	}
	if a != DeriveString(7, "scheduler") {
		t.Fatal("DeriveString is not deterministic")
	}
}

func TestSplitMixReproducible(t *testing.T) {
	a, b := NewSplitMix(99), NewSplitMix(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(2024)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for v, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("value %d drawn %d times, want about %d", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / trials
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v, want about 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	check := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetNonEmpty(t *testing.T) {
	r := New(13)
	for trial := 0; trial < 500; trial++ {
		n := 1 + trial%8
		s := r.SubsetNonEmpty(n)
		if len(s) == 0 {
			t.Fatal("SubsetNonEmpty returned empty subset")
		}
		for i, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("subset element %d out of range [0,%d)", v, n)
			}
			if i > 0 && s[i-1] >= v {
				t.Fatalf("subset not sorted/unique: %v", s)
			}
		}
	}
}

func BenchmarkSplitMixUint64(b *testing.B) {
	s := NewSplitMix(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkSubsetNonEmpty(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = r.SubsetNonEmpty(n)
			}
		})
	}
}
