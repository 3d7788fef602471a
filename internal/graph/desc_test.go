package graph

import (
	"fmt"
	"testing"
)

// TestDescMatchesBuild: a descriptor promises the name and size of the
// graph its Build returns, and fails exactly when the build would. Held
// for every Named family and the three parameterized random families,
// over every size from 1 to 600 — across every clamp and rounding
// boundary the families have. The families whose build is quadratic in n
// round nothing, so above 64 they are sampled.
func TestDescMatchesBuild(t *testing.T) {
	t.Parallel()
	type family struct {
		name      string
		quadratic bool
		describe  func(n int) (Desc, error)
		build     func(n int) (*Graph, error)
	}
	var families []family
	for _, name := range NamedGenerators() {
		quadratic := name == "complete" || name == "lollipop" || name == "gnp" || name == "rgg"
		families = append(families, family{name, quadratic,
			func(n int) (Desc, error) { return Describe(name, n, 11) },
			func(n int) (*Graph, error) { return Named(name, n, 11) }})
	}
	for _, d := range []int{1, 3, 4} {
		families = append(families, family{fmt.Sprintf("regular d=%d", d), false,
			func(n int) (Desc, error) { return DescribeRegular(n, d, 11) },
			func(n int) (*Graph, error) {
				desc, err := DescribeRegular(n, d, 11)
				if err != nil {
					return nil, err
				}
				return desc.Build()
			}})
	}
	for _, p := range []float64{0.05, 0.5} {
		families = append(families,
			family{fmt.Sprintf("gnp p=%g", p), true,
				func(n int) (Desc, error) { return DescribeGNP(n, p, 11), nil },
				func(n int) (*Graph, error) { return DescribeGNP(n, p, 11).Build() }},
			family{fmt.Sprintf("rgg p=%g", p), true,
				func(n int) (Desc, error) { return DescribeGeometric(n, p, 11), nil },
				func(n int) (*Graph, error) { return DescribeGeometric(n, p, 11).Build() }})
	}
	for _, f := range families {
		for n := 1; n <= 600; n++ {
			if f.quadratic && n > 64 && n%67 != 0 {
				continue
			}
			desc, descErr := f.describe(n)
			g, buildErr := f.build(n)
			if (descErr == nil) != (buildErr == nil) {
				t.Fatalf("%s %d: descriptor error %v, build error %v", f.name, n, descErr, buildErr)
			}
			if descErr != nil {
				if descErr.Error() != buildErr.Error() {
					t.Fatalf("%s %d: descriptor error %q, build error %q", f.name, n, descErr, buildErr)
				}
				continue
			}
			if desc.Name != g.Name() || desc.N != g.N() {
				t.Fatalf("%s %d: descriptor (%s, n=%d), built graph (%s, n=%d)",
					f.name, n, desc.Name, desc.N, g.Name(), g.N())
			}
		}
	}
}

// TestDescBuildIsRepeatable: a descriptor carries a seed, not a draw
// stream, so every Build of a random family returns the same graph —
// the one the r-taking constructor returns for a fresh stream of that
// seed.
func TestDescBuildIsRepeatable(t *testing.T) {
	for _, name := range []string{"tree", "gnp", "regular", "rgg"} {
		desc, err := Describe(name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		a, err := desc.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := desc.Build()
		if err != nil {
			t.Fatal(err)
		}
		named, err := Named(name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) || !a.Equal(named) {
			t.Fatalf("%s: two Builds of one descriptor, or Named, disagree", name)
		}
	}
}

// TestDescribeRejectsWhatCannotBeBuilt: sizes the lollipop family has
// no graph for (they used to panic in the builder) and a 1-regular
// graph that could never be connected (it used to burn every pairing
// attempt) are descriptor errors.
func TestDescribeRejectsWhatCannotBeBuilt(t *testing.T) {
	for n := 0; n < 3; n++ {
		if _, err := Named("lollipop", n, 1); err == nil {
			t.Fatalf("lollipop %d built", n)
		}
	}
	if _, err := DescribeRegular(4, 1, 1); err == nil {
		t.Fatal("regular n=4 d=1 described")
	}
	if _, err := DescribeRegular(2, 1, 1); err != nil {
		t.Fatalf("regular n=2 d=1 (one edge): %v", err)
	}
}
