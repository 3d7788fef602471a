package trace

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/rng"
	"repro/internal/sched"
)

// arcOracle forwards every call to a Recorder and keeps each R_p a
// second way, as a map of the neighbors the arcs name (graph.ArcHead). At
// every Selected it checks that each arc is one of p's, inside
// [RowStart(p), RowStart(p+1)), and names a live neighbor of p at that
// step: an arc that followed a port instead of its neighbor through a
// removal names a neighbor that is gone, or names one neighbor twice.
type arcOracle struct {
	*Recorder
	t    *testing.T
	g    *graph.Graph
	sets []map[int]bool
}

func newArcOracle(t *testing.T, g *graph.Graph) *arcOracle {
	o := &arcOracle{Recorder: NewRecorder(g.N()), t: t, g: g}
	o.MarkSuffix()
	return o
}

func (o *arcOracle) Selected(step, p int, neighbors []int, bits, fired, times int) {
	o.t.Helper()
	o.Recorder.Selected(step, p, neighbors, bits, fired, times)
	for _, a := range neighbors {
		if a < o.g.RowStart(p) || a >= o.g.RowStart(p+1) {
			o.t.Fatalf("step %d: process %d read arc %d outside its arcs [%d,%d)", step, p, a, o.g.RowStart(p), o.g.RowStart(p+1))
		}
		q := o.g.ArcHead(a)
		if o.g.PortOf(p, q) == 0 {
			o.t.Fatalf("step %d: process %d read arc %d, which names %d, not a live neighbor (row %v)", step, p, a, q, o.g.Row(p))
		}
		o.sets[p][q] = true
	}
}

// MarkSuffix starts a new suffix on both sides.
func (o *arcOracle) MarkSuffix() {
	o.Recorder.MarkSuffix()
	o.sets = make([]map[int]bool, o.g.N())
	for p := range o.sets {
		o.sets[p] = map[int]bool{}
	}
}

// check compares |R_p| of the recorder with the oracle's for every p.
func (o *arcOracle) check(at string) {
	o.t.Helper()
	for p, set := range o.sets {
		if got := int(o.size[p]); got != len(set) {
			o.t.Fatalf("%s: recorder |R_%d| = %d, oracle holds %d neighbors %v", at, p, got, len(set), set)
		}
	}
}

// TestArcReadSetsUnderChurn runs a Simulator on a MutableCopy through
// edge removals and restorations, a crash and a join inside one suffix,
// and holds the recorder's read sets to arcOracle's after every
// operation: a neighbor keeps its arc whatever port a topology event
// moves it to, so R_p counts it once. The specs read every port
// (twoReadSpec, with disabled replays) and one rotating port (COLORING,
// with counted cycles before and after silence), under the synchronous
// daemon and a random subset.
func TestArcReadSetsUnderChurn(t *testing.T) {
	t.Parallel()
	specs := []func() *model.Spec{twoReadSpec, coloring.Spec}
	daemons := []func() model.Scheduler{
		func() model.Scheduler { return sched.NewSynchronous() },
		func() model.Scheduler { return sched.NewRandomSubset(3) },
	}
	for _, spec := range specs {
		for _, daemon := range daemons {
			sch := daemon()
			base, err := model.NewSystem(graph.RandomConnectedGNP(16, 0.35, rng.New(5)), spec(), nil)
			if err != nil {
				t.Fatal(err)
			}
			sys := base.MutableCopy()
			g := sys.Graph()
			o := newArcOracle(t, g)
			sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(9)), sch, 9, o)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s", sys.Spec().Name, sch.Name())
			// Up to 12 steps that stop at silence, then 6 more, which
			// count on closed cycles once silence was found.
			run := func(at string) {
				t.Helper()
				if _, err := sim.RunUntilSilent(sim.Steps()+12, 1); err != nil {
					t.Fatal(err)
				}
				sim.RunSteps(6)
				o.check(name + ": " + at)
			}
			topo := func(kind model.TopologyKind, u, v int) {
				t.Helper()
				sim.ApplyTopology(model.TopologyEvent{Kind: kind, U: u, V: v}, nil)
				o.check(fmt.Sprintf("%s: after topology event %d{%d,%d}", name, kind, u, v))
			}
			hub := 0
			for p := range g.N() {
				if g.Degree(p) > g.Degree(hub) {
					hub = p
				}
			}
			first, second := g.Neighbor(hub, 1), g.Neighbor(hub, 2)

			run("before the suffix")
			o.MarkSuffix()
			run("suffix start")
			topo(model.TopoEdgeRemove, hub, first) // the last port moves into port 1
			run("after a removal")
			topo(model.TopoEdgeAdd, hub, first) // back at the hub's last port
			run("after a restoration")
			topo(model.TopoCrash, second, 0)
			run("after a crash")
			topo(model.TopoJoin, second, 0)
			run("after a join")
			if got := int(o.size[hub]); got < 2 {
				t.Fatalf("%s: the hub read %d neighbors over the suffix: the script moved no read port", name, got)
			}
			o.MarkSuffix()
			run("second suffix")
		}
	}
}
