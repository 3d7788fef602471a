package engine

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/bfstree"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/frozen"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/transformer"
)

// Protocol family names: every protocol the campaign DSL, the registry,
// the selfstab facade and the commands run, under one name each.
const (
	FamColoring         = "coloring"
	FamColoringBaseline = "coloring-baseline"
	FamMIS              = "mis"
	FamMISBaseline      = "mis-baseline"
	FamMatching         = "matching"
	FamMatchingBaseline = "matching-baseline"
	// FamBFSTree is the classical full-read BFS spanning tree rooted at
	// process 0 — the local-checking paradigm the paper improves on.
	FamBFSTree = "bfstree"
	// The -xform families are the full-read ones made 1-efficient by the
	// local-checking transformer (internal/transformer, experiment E13).
	FamColoringXform = "coloring-xform"
	FamMISXform      = "mis-xform"
	FamMatchingXform = "matching-xform"
	FamBFSTreeXform  = "bfstree-xform"
	// FamFrozen is the deliberately ♦-1-stable (and therefore broken)
	// frozen coloring of Theorems 1/2: it freezes into silence but the
	// silent configuration need not be a proper coloring, so campaigns
	// over it observe silent-but-illegitimate outcomes. FamMISFrozen and
	// FamMatchingFrozen are its MIS and MATCHING counterparts.
	FamFrozen         = "frozen"
	FamMISFrozen      = "mis-frozen"
	FamMatchingFrozen = "matching-frozen"
)

// family declares one protocol family: its spec for a palette of Δ+1
// local identifiers, how a system of it gets its constants, and whether
// the local-checking transformer is applied to the spec first. The spec
// carries the legitimacy predicate.
type family struct {
	spec   func(palette int) *model.Spec
	system func(g *graph.Graph, spec *model.Spec, colors []int) (*model.System, error)
	xform  bool
}

var families = map[string]family{
	FamColoring:         {spec: anonymous(coloring.Spec), system: noConsts},
	FamColoringBaseline: {spec: anonymous(coloring.BaselineSpec), system: noConsts},
	FamColoringXform:    {spec: anonymous(coloring.BaselineSpec), system: noConsts, xform: true},
	FamMIS:              {spec: mis.Spec, system: mis.NewSystem},
	FamMISBaseline:      {spec: mis.BaselineSpec, system: mis.NewSystem},
	FamMISXform:         {spec: mis.BaselineSpec, system: mis.NewSystem, xform: true},
	FamMatching:         {spec: matching.Spec, system: matching.NewSystem},
	FamMatchingBaseline: {spec: matching.BaselineSpec, system: matching.NewSystem},
	FamMatchingXform:    {spec: matching.BaselineSpec, system: matching.NewSystem, xform: true},
	FamBFSTree:          {spec: anonymous(bfstree.Spec), system: rootedAtZero},
	FamBFSTreeXform:     {spec: anonymous(bfstree.Spec), system: rootedAtZero, xform: true},
	FamFrozen:           {spec: anonymous(frozen.ColoringSpec), system: noConsts},
	FamMISFrozen:        {spec: frozen.MISSpec, system: mis.NewSystem},
	FamMatchingFrozen:   {spec: frozen.MatchingSpec, system: matching.NewSystem},
}

// anonymous adapts a spec that needs no palette.
func anonymous(spec func() *model.Spec) func(int) *model.Spec {
	return func(int) *model.Spec { return spec() }
}

func noConsts(g *graph.Graph, spec *model.Spec, _ []int) (*model.System, error) {
	return model.NewSystem(g, spec, nil)
}

func rootedAtZero(g *graph.Graph, spec *model.Spec, _ []int) (*model.System, error) {
	return bfstree.NewSystem(g, spec, 0)
}

// Build instantiates the named protocol family on g. colors are the local
// identifiers (values 1..Δ+1) of the families whose processes hold them,
// nil for graph.GreedyLocalColoring's; the other families ignore them.
func Build(g *graph.Graph, name string, colors []int) (*model.System, error) {
	f, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown protocol family %q (known: %v)", name, Families())
	}
	spec := f.spec(g.MaxDegree() + 1)
	if f.xform {
		var err error
		if spec, err = transformer.Transform(spec, g.MaxDegree()); err != nil {
			return nil, err
		}
	}
	return f.system(g, spec, colors)
}

// System is Build with greedy local identifiers that also returns the
// family's predicate, model.Legitimate (the conjunction of the spec's
// per-process Spec.Legitimate), in the shape the traced runs of bench/
// pass to core.RunOptions.Legitimate.
func System(g *graph.Graph, name string) (*model.System, func(*model.System, *model.Config) bool, error) {
	sys, err := Build(g, name, nil)
	if err != nil {
		return nil, nil, err
	}
	return sys, model.Legitimate, nil
}

// Families lists the protocol family names, sorted.
func Families() []string {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
