package model_test

// Topology-event soundness: churn adversaries mutate the live graph
// between steps through Simulator.ApplyTopology. These tests drive
// computations interleaved with random valid edge remove/restore and
// node crash/join events and verify after every event and step that the
// incremental enabled/silence caches agree with from-scratch oracles on
// the live system — the dynamic-topology counterpart of the MarkDirty
// injection tests.

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// topoMutator generates random valid topology events against a dynamic
// system, tracking removed base edges and crashed processes.
type topoMutator struct {
	base    *graph.Graph
	edges   [][2]int
	crashed map[int]bool
	r       *rng.Rand
}

func newTopoMutator(base *graph.Graph, r *rng.Rand) *topoMutator {
	return &topoMutator{base: base, edges: base.Edges(), crashed: map[int]bool{}, r: r}
}

func flatten(edges [][2]int) []int {
	out := make([]int, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e[0], e[1])
	}
	return out
}

// apply fires next on sim and returns the affected processes.
func (m *topoMutator) apply(sim *model.Simulator, dst []int) []int {
	return sim.ApplyTopology(m.next(sim.Sys().Graph()), dst)
}

// next draws one random event valid on the live graph g (retrying kinds
// with no valid candidate).
func (m *topoMutator) next(g *graph.Graph) model.TopologyEvent {
	for {
		switch m.r.Intn(4) {
		case 0: // remove a live edge
			e := m.edges[m.r.Intn(len(m.edges))]
			if !g.HasEdge(e[0], e[1]) {
				continue
			}
			return model.TopologyEvent{Kind: model.TopoEdgeRemove, U: e[0], V: e[1]}
		case 1: // restore a removed base edge between alive endpoints
			e := m.edges[m.r.Intn(len(m.edges))]
			if g.HasEdge(e[0], e[1]) || m.crashed[e[0]] || m.crashed[e[1]] {
				continue
			}
			return model.TopologyEvent{Kind: model.TopoEdgeAdd, U: e[0], V: e[1]}
		case 2: // crash an alive process
			p := m.r.Intn(m.base.N())
			if m.crashed[p] {
				continue
			}
			m.crashed[p] = true
			return model.TopologyEvent{Kind: model.TopoCrash, U: p}
		default: // rejoin a crashed process
			if len(m.crashed) == 0 {
				continue
			}
			p := m.r.Intn(m.base.N())
			if !m.crashed[p] {
				continue
			}
			delete(m.crashed, p)
			return model.TopologyEvent{Kind: model.TopoJoin, U: p}
		}
	}
}

// TestMutableCopyIsolation: mutating the dynamic copy never perturbs
// the base system's graph or domains, and ResetDynamic restores the
// copy to an exact structural match of the base.
func TestMutableCopyIsolation(t *testing.T) {
	t.Parallel()
	base := injectionTestSystems(t)[0]
	sys := base.MutableCopy()
	if !sys.Dynamic() || base.Dynamic() {
		t.Fatalf("Dynamic(): copy %v base %v, want true/false", sys.Dynamic(), base.Dynamic())
	}
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sched.NewRandomSubset(1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseEdges := base.Graph().Edges()
	baseDoms := make([]int, 0, base.N()*base.CommWidth())
	for p := 0; p < base.N(); p++ {
		for v := 0; v < base.CommWidth(); v++ {
			baseDoms = append(baseDoms, base.CommDomain(p, v))
		}
	}
	mut := newTopoMutator(base.Graph(), rng.New(5))
	for i := 0; i < 50; i++ {
		mut.apply(sim, nil)
	}
	if got := base.Graph().Edges(); !slices.Equal(flatten(got), flatten(baseEdges)) {
		t.Fatal("mutating the copy perturbed the base graph")
	}
	i := 0
	for p := 0; p < base.N(); p++ {
		for v := 0; v < base.CommWidth(); v++ {
			if base.CommDomain(p, v) != baseDoms[i] {
				t.Fatalf("mutating the copy perturbed base domain at %d/%d", p, v)
			}
			i++
		}
	}
	sys.ResetDynamic()
	if !sys.Graph().Equal(base.Graph()) {
		t.Fatal("ResetDynamic did not restore the base graph")
	}
	for p := 0; p < base.N(); p++ {
		for v := 0; v < base.CommWidth(); v++ {
			if sys.CommDomain(p, v) != base.CommDomain(p, v) {
				t.Fatalf("ResetDynamic domain mismatch at %d/%d", p, v)
			}
		}
	}
}

// TestTopologyStepZeroAlloc: the steady-state churn step — apply a
// topology event, step the simulator on the mutated graph, restore —
// allocates nothing once buffers are warm.
func TestTopologyStepZeroAlloc(t *testing.T) {
	base := coloringSystem(t, graph.Torus(4, 4))
	sys := base.MutableCopy()
	cfg := model.NewRandomConfig(sys, rng.New(3))
	sc := sched.NewRandomSubset(1)
	var sim model.Simulator
	buf := make([]int, 0, 32)
	seed := uint64(0)
	iter := func() {
		seed++
		sys.ResetDynamic()
		sc.Reset(seed)
		if err := sim.Reset(sys, cfg, sc, seed, nil); err != nil {
			t.Fatal(err)
		}
		buf = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeRemove, U: 0, V: 1}, buf[:0])
		buf = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoCrash, U: 9}, buf)
		sim.RunSteps(6)
		buf = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoJoin, U: 9}, buf[:0])
		buf = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeAdd, U: 0, V: 1}, buf)
		sim.RunSteps(6)
		if _, err := sim.SilentNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(100, iter); avg != 0 {
		t.Fatalf("steady-state churn step allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkTopologyStep measures the apply-event + step + restore cycle
// on a torus coloring system — the model-layer hot path of churn
// trials.
func BenchmarkTopologyStep(b *testing.B) {
	base := coloringSystem(b, graph.Torus(4, 4))
	sys := base.MutableCopy()
	cfg := model.NewRandomConfig(sys, rng.New(3))
	sim, err := model.NewSimulator(sys, cfg, sched.NewRandomSubset(1), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeRemove, U: 0, V: 1}, buf[:0])
		sim.Step()
		buf = sim.ApplyTopology(model.TopologyEvent{Kind: model.TopoEdgeAdd, U: 0, V: 1}, buf)
		sim.Step()
	}
}
