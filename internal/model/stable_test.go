package model_test

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/sched"
)

func TestEventualReadSetsScanner(t *testing.T) {
	// The scanner protocol rotates forever, reading all neighbors in its
	// cycle: every process's eventual read set is its whole neighborhood.
	g := graph.Cycle(5)
	sys := mustSystem(t, g, scanSpec(), nil)
	cfg := model.NewZeroConfig(sys)
	prof, err := model.AnalyzeStability(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.N(); p++ {
		if len(prof.ReadSets[p]) != 2 {
			t.Fatalf("process %d eventual reads = %v, want both neighbors", p, prof.ReadSets[p])
		}
	}
	if prof.OneStable != 0 || prof.SuffixK != 2 {
		t.Fatalf("profile: %+v", prof)
	}
}

func TestEventualReadSetsDisabledFixpoint(t *testing.T) {
	// The copy protocol at an all-equal configuration: everyone is
	// disabled; the guard evaluation reads port 1 forever, so every
	// process is exactly 1-stable.
	g := graph.Path(4)
	sys := mustSystem(t, g, copySpec(), nil)
	cfg := model.NewZeroConfig(sys)
	prof, err := model.AnalyzeStability(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prof.OneStable != g.N() {
		t.Fatalf("OneStable = %d, want %d", prof.OneStable, g.N())
	}
	for p := 0; p < g.N(); p++ {
		want := g.Neighbor(p, 1)
		if len(prof.ReadSets[p]) != 1 || prof.ReadSets[p][0] != want {
			t.Fatalf("process %d reads %v, want [%d]", p, prof.ReadSets[p], want)
		}
	}
}

func TestEventualReadSetsRejectsNonSilent(t *testing.T) {
	g := graph.Path(2)
	sys := mustSystem(t, g, copySpec(), nil)
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(1, 0, 3) // conflict: copy action will write comm
	if _, err := model.EventualReadSets(sys, cfg); err == nil {
		t.Fatal("non-silent configuration accepted")
	}
}

func TestEventualReadSetsRejectsEnabledRandomized(t *testing.T) {
	spec := &model.Spec{
		Name: "RND",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(4)}},
		Actions: []model.Action{{
			Name:       "rnd",
			Guard:      func(c *model.Ctx) bool { return c.Comm(0) == c.NeighborComm(1, 0) },
			Apply:      func(c *model.Ctx) { c.SetComm(0, c.Rand(4)) },
			Randomized: true,
		}},
	}
	sys := mustSystem(t, graph.Path(2), spec, nil)
	cfg := model.NewZeroConfig(sys) // randomized action enabled
	if _, err := model.EventualReadSets(sys, cfg); err == nil {
		t.Fatal("enabled randomized action accepted")
	}
}

func TestEventualReadSetsTailExcluded(t *testing.T) {
	// A protocol whose internal pointer walks to its last port and stays
	// there: the tail reads several neighbors, the cycle reads only one.
	spec := &model.Spec{
		Name:     "WALK",
		Comm:     []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
		Internal: []model.VarSpec{{Name: "i", Domain: func(d model.DomainInfo) int { return d.Degree }}},
		Actions: []model.Action{{
			Name: "walk",
			Guard: func(c *model.Ctx) bool {
				_ = c.NeighborComm(c.Internal(0)+1, 0)
				return c.Internal(0) < c.Deg()-1
			},
			Apply: func(c *model.Ctx) { c.SetInternal(0, c.Internal(0)+1) },
		}},
	}
	g := graph.Star(5) // hub degree 4
	sys := mustSystem(t, g, spec, nil)
	cfg := model.NewZeroConfig(sys) // all pointers at port 1
	prof, err := model.AnalyzeStability(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hub (process 0): walks ports 1..4 (tail), then sits disabled at
	// port 4 reading only that neighbor forever.
	if got := prof.ReadSets[0]; len(got) != 1 || got[0] != g.Neighbor(0, g.Degree(0)) {
		t.Fatalf("hub eventual reads = %v, want only the last port's neighbor", got)
	}
	// Leaves have degree 1: immediately disabled at their only neighbor.
	for p := 1; p < g.N(); p++ {
		if len(prof.ReadSets[p]) != 1 {
			t.Fatalf("leaf %d eventual reads = %v", p, prof.ReadSets[p])
		}
	}
	if prof.OneStable != g.N() {
		t.Fatalf("OneStable = %d", prof.OneStable)
	}
}

// TestEventualReadSetsCrashedProcess: on a silent ring with one process
// crashed, the crashed process sits at degree 0, disabled by definition,
// and reads nothing forever, while each former neighbor keeps reading the
// one neighbor it has left. The silence checks call the ring silent, and
// the stability analysis must answer too instead of evaluating a guard
// at degree 0.
func TestEventualReadSetsCrashedProcess(t *testing.T) {
	sys := mustSystem(t, graph.Cycle(5), scanSpec(), nil).MutableCopy()
	sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), sched.NewSynchronous(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoCrash, U: 2}, nil)
	if silent, err := sim.SilentNow(); err != nil || !silent || !ref.Silent(sys, sim.Config()) {
		t.Fatalf("SilentNow = (%v, %v), ref.Silent = %v: want a silent ring", silent, err, ref.Silent(sys, sim.Config()))
	}
	prof, err := model.AnalyzeStability(sys, sim.Config())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 4}, {0}, {}, {4}, {0, 3}}
	for p, set := range want {
		if !slices.Equal(prof.ReadSets[p], set) {
			t.Errorf("process %d eventual reads = %v, want %v", p, prof.ReadSets[p], set)
		}
	}
	if prof.OneStable != 3 || prof.SuffixK != 2 {
		t.Fatalf("profile %+v: want 3 processes 1-stable and SuffixK 2", prof)
	}
}
