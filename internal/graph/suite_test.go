package graph

import "testing"

// TestDescribeSuiteMatchesSuite: DescribeSuite describes, in order, the
// graphs Suite builds at the same seed — the names and sizes cell keys
// embed — and each descriptor's Build returns that graph.
func TestDescribeSuiteMatchesSuite(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 2009} {
		for _, quick := range []bool{true, false} {
			graphs, err := Suite(seed, quick)
			if err != nil {
				t.Fatal(err)
			}
			descs, err := DescribeSuite(seed, quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(descs) != len(graphs) {
				t.Fatalf("seed %d quick %v: %d descriptors for %d graphs", seed, quick, len(descs), len(graphs))
			}
			for i, want := range graphs {
				got, err := descs[i].Build()
				if err != nil {
					t.Fatal(err)
				}
				if descs[i].Name != want.Name() || descs[i].N != want.N() || !got.Equal(want) || got.Name() != want.Name() {
					t.Errorf("seed %d member %d: described (%s, n=%d) building %s, want %s",
						seed, i, descs[i].Name, descs[i].N, got, want)
				}
			}
		}
	}
}
