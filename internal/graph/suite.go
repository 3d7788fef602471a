package graph

import "repro/internal/rng"

// Suite builds the benchmark graph suite of the experiment registry at
// seed. Quick keeps four small graphs; the full suite spans the topology
// families of the paper's setting (arbitrary connected networks) plus
// the paper's own figures. The random graphs draw from one stream,
// rng.DeriveString(seed, "suite"), in the order they are built here.
func Suite(seed uint64, quick bool) ([]*Graph, error) {
	r := rng.New(rng.DeriveString(seed, "suite"))
	if quick {
		return []*Graph{
			Path(8),
			Cycle(9),
			Star(8),
			RandomConnectedGNP(12, 0.25, r),
		}, nil
	}
	reg, err := RandomRegular(16, 4, r)
	if err != nil {
		return nil, err
	}
	return []*Graph{
		Path(12),
		Cycle(13),
		Complete(6),
		Star(10),
		Grid(4, 4),
		Torus(3, 4),
		Hypercube(3),
		BalancedBinaryTree(3),
		Caterpillar(5, 2),
		RandomConnectedGNP(16, 0.2, r),
		reg,
		RandomGeometric(16, 0.35, r),
		Lollipop(5, 5),
		TheoremOneSpider(3),
		FigureNinePath(11),
		FigureElevenNetwork(),
	}, nil
}

// DescribeSuite describes Suite's graphs, in suite order. Unlike the
// other descriptors it builds them — sixteen graphs of at most sixteen
// processes, drawn from one shared stream — and each Build returns its
// graph.
func DescribeSuite(seed uint64, quick bool) ([]Desc, error) {
	graphs, err := Suite(seed, quick)
	if err != nil {
		return nil, err
	}
	descs := make([]Desc, len(graphs))
	for i, g := range graphs {
		descs[i] = Desc{Name: g.Name(), N: g.N(), build: func(string, *rng.Rand) (*Graph, error) { return g, nil }}
	}
	return descs, nil
}
