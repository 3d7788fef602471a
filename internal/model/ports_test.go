package model_test

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// portProbeSpec is a protocol whose one guard reads communication
// variable 0 of the neighbor behind *port, whatever that is.
func portProbeSpec(port *int) *model.Spec {
	return &model.Spec{
		Name: "PORTPROBE",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(2)}},
		Actions: []model.Action{{
			Name:  "probe",
			Guard: func(c *model.Ctx) bool { return c.NeighborComm(*port, 0) >= 0 },
			Apply: func(c *model.Ctx) {},
		}},
	}
}

// only is the daemon that selects one fixed process.
type only int

func (only) Name() string                                     { return "only" }
func (o only) Select(int, *model.System, *model.Config) []int { return []int{int(o)} }

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestNeighborBeyondLiveDegreePanics: the flat layout puts p's row next
// to its neighbor's in one arena, and a dynamic graph parks removed arcs
// right behind the live ones, so a port outside 1..δ.p must stop on the
// row's bound at the graph's accessors and in every context a guard is
// evaluated through (a one-shot evaluation, the tracker's probe, the
// step arena), and must never surface a removed neighbor.
func TestNeighborBeyondLiveDegreePanics(t *testing.T) {
	port := 0
	spec := portProbeSpec(&port)
	check := func(t *testing.T, sys *model.System, p int, gone ...int) {
		t.Helper()
		g := sys.Graph()
		d := g.Degree(p)
		for i := 1; i <= d; i++ {
			if q := g.Neighbor(p, i); slices.Contains(gone, q) {
				t.Errorf("process %d port %d: removed neighbor %d is still behind it", p, i, q)
			}
		}
		cfg := model.NewZeroConfig(sys)
		probes := map[string]func(){
			"Neighbor": func() { g.Neighbor(p, port) },
			"BackPort": func() { g.BackPort(p, port) },
		}
		if d > 0 { // guards are not evaluated at degree 0
			probes["guard via StepProcess"] = func() { model.StepProcess(sys, cfg, p, nil) }
			probes["guard via EnabledTracker"] = func() { model.NewEnabledTracker(sys, cfg).EnabledAction(p) }
			probes["guard via Step"] = func() {
				sim, err := model.NewSimulator(sys, cfg, only(p), 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				sim.Step()
			}
		}
		for name, probe := range probes {
			for _, port = range []int{0, d + 1} {
				if !panics(probe) {
					t.Errorf("process %d (degree %d): %s at port %d did not panic", p, d, name, port)
				}
			}
			if port = d; d > 0 && panics(probe) {
				t.Errorf("process %d: %s at its last port %d panicked", p, name, d)
			}
		}
	}

	b := graph.NewBuilder(4, "kite")
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		b.MustAddEdge(e[0], e[1])
	}
	for _, g := range []*graph.Graph{b.Build(), graph.Torus(3, 4)} {
		t.Run(g.Name(), func(t *testing.T) {
			sys := mustSystem(t, g, spec, nil)
			for p := 0; p < g.N(); p++ {
				check(t, sys, p)
			}
		})
	}

	t.Run("dynamic", func(t *testing.T) {
		sys := mustSystem(t, graph.Torus(3, 4), spec, nil).MutableCopy()
		g := sys.Graph()
		u, v := 4, g.Neighbor(4, 2)
		if !g.RemoveEdge(u, v) {
			t.Fatalf("edge {%d,%d} not removed", u, v)
		}
		check(t, sys, u, v)
		check(t, sys, v, u)
		w := 7
		former := g.Neighbors(w)
		if !g.CrashNode(w) {
			t.Fatalf("process %d not crashed", w)
		}
		check(t, sys, w, former...)
		for _, q := range former {
			check(t, sys, q, w)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
