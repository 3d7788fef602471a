package fault_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
)

// dynamicSim builds a fresh dynamic copy of a coloring system on g with
// a live simulator, the setup every churn firing requires.
func dynamicSim(t *testing.T, g *graph.Graph, seed uint64) (*model.Simulator, *model.System) {
	t.Helper()
	base, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := base.MutableCopy()
	cfg := model.NewRandomConfig(sys, rng.New(seed^0x51C7))
	sim := &model.Simulator{}
	if err := sim.Reset(sys, cfg, sched.NewCentralRandom(seed), seed, nil); err != nil {
		t.Fatal(err)
	}
	return sim, sys
}

func churnTestGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Cycle(9),
		graph.Grid(4, 4),
		graph.RandomConnectedGNP(12, 0.3, rng.New(5)),
	}
}

// sameEdges compares two graphs as edge sets: restore re-appends edges
// at the end of their CSR rows, so an undone churn firing reproduces
// the base topology up to port order, not byte-identically.
func sameEdges(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	row := func(g *graph.Graph, p int) []int {
		r := make([]int, 0, g.Degree(p))
		for port := 1; port <= g.Degree(p); port++ {
			r = append(r, g.Neighbor(p, port))
		}
		slices.Sort(r)
		return r
	}
	for p := 0; p < a.N(); p++ {
		if !slices.Equal(row(a, p), row(b, p)) {
			return false
		}
	}
	return true
}

func allChurn(t *testing.T, k int) []fault.ChurnAdversary {
	t.Helper()
	var advs []fault.ChurnAdversary
	for _, name := range fault.ChurnNames() {
		a, err := fault.ChurnByName(name, k)
		if err != nil {
			t.Fatal(err)
		}
		advs = append(advs, a)
	}
	return advs
}

// TestChurnContract: every churn firing reports a non-empty affected
// set, leaves the dynamic graph structurally sound (CSR invariants) and
// the configuration inside its live domains, and keeps the simulator's
// incremental enabled tracker agreeing with the from-scratch oracle.
func TestChurnContract(t *testing.T) {
	t.Parallel()
	for _, g := range churnTestGraphs() {
		for _, k := range []int{1, 3} {
			for _, adv := range allChurn(t, k) {
				for seed := uint64(1); seed <= 3; seed++ {
					sim, sys := dynamicSim(t, g, seed)
					adv.Reset(seed)
					var affected []int
					for fire := 0; fire < 6; fire++ {
						affected = adv.Churn(sim, affected[:0])
						if len(affected) == 0 {
							t.Fatalf("%s k=%d fire %d: empty affected set", adv.Name(), k, fire)
						}
						if err := sys.Graph().CheckInvariants(); err != nil {
							t.Fatalf("%s k=%d fire %d: %v", adv.Name(), k, fire, err)
						}
						if err := sim.Config().Validate(sys); err != nil {
							t.Fatalf("%s k=%d fire %d: config out of domain: %v", adv.Name(), k, fire, err)
						}
						got := sim.Tracker().AppendEnabled(nil)
						want := ref.EnabledSet(sys, sim.Config())
						if !slices.Equal(got, want) {
							t.Fatalf("%s k=%d fire %d: tracker %v, oracle %v", adv.Name(), k, fire, got, want)
						}
						sim.RunSteps(3)
					}
				}
			}
		}
	}
}

// TestChurnUndoSemantics pins each shape's restore behaviour: cut and
// crashjoin return the graph to the base topology after an even firing
// count, rewire keeps exactly K edges missing after every firing, and
// crashjoin's disturb firing crashes exactly min(K, n) processes whose
// state is zeroed on rejoin.
func TestChurnUndoSemantics(t *testing.T) {
	t.Parallel()
	g := graph.Grid(4, 4)
	baseM := g.M()

	t.Run("rewire", func(t *testing.T) {
		sim, sys := dynamicSim(t, g, 7)
		adv := fault.NewRewire(2)
		adv.Reset(7)
		for fire := 0; fire < 5; fire++ {
			adv.Churn(sim, nil)
			if got := sys.Graph().M(); got != baseM-2 {
				t.Fatalf("fire %d: %d live edges, want %d", fire, got, baseM-2)
			}
			sim.RunSteps(2)
		}
	})

	t.Run("cut", func(t *testing.T) {
		sim, sys := dynamicSim(t, g, 7)
		adv := fault.NewCut(4)
		adv.Reset(7)
		for fire := 0; fire < 6; fire++ {
			adv.Churn(sim, nil)
			if fire%2 == 0 {
				if sys.Graph().M() >= baseM {
					t.Fatalf("fire %d: cut severed no edges", fire)
				}
			} else if !sameEdges(sys.Graph(), g) {
				t.Fatalf("fire %d: reconnect did not restore the base graph", fire)
			}
			sim.RunSteps(2)
		}
	})

	t.Run("crashjoin", func(t *testing.T) {
		sim, sys := dynamicSim(t, g, 7)
		adv := fault.NewCrashJoin(3)
		adv.Reset(7)
		for fire := 0; fire < 6; fire++ {
			adv.Churn(sim, nil)
			var dead []int
			for p := 0; p < sys.N(); p++ {
				if !sys.Graph().Alive(p) {
					dead = append(dead, p)
				}
			}
			if fire%2 == 0 {
				if len(dead) != 3 {
					t.Fatalf("fire %d: %d crashed processes, want 3", fire, len(dead))
				}
			} else {
				if len(dead) != 0 {
					t.Fatalf("fire %d: %d processes still crashed after rejoin", fire, len(dead))
				}
				if !sameEdges(sys.Graph(), g) {
					t.Fatalf("fire %d: rejoin did not restore the base graph", fire)
				}
			}
			sim.RunSteps(2)
		}
	})

	t.Run("crashjoin-zeroes", func(t *testing.T) {
		sim, sys := dynamicSim(t, g, 11)
		adv := fault.NewCrashJoin(3)
		adv.Reset(11)
		crashed := adv.Churn(sim, nil) // victims + their neighbors
		var victims []int
		for _, p := range crashed {
			if !sys.Graph().Alive(p) {
				victims = append(victims, p)
			}
		}
		if len(victims) != 3 {
			t.Fatalf("%d victims among affected %v, want 3", len(victims), crashed)
		}
		adv.Churn(sim, nil) // rejoin
		for _, p := range victims {
			for v := range sys.CommWidth() {
				if val := sim.Config().Comm(p, v); val != 0 {
					t.Fatalf("rejoined process %d comm[%d]=%d, want 0", p, v, val)
				}
			}
		}
	})
}

// TestChurnResetMatchesFresh: a reused churn adversary rewound to a
// seed replays exactly the topology stream of a freshly constructed
// one — the pooled-reuse contract shared with state adversaries.
func TestChurnResetMatchesFresh(t *testing.T) {
	t.Parallel()
	g := graph.RandomConnectedGNP(12, 0.3, rng.New(5))
	for _, name := range fault.ChurnNames() {
		reused, err := fault.ChurnByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the reused instance with a couple of firings first.
		simD, _ := dynamicSim(t, g, 99)
		reused.Reset(99)
		reused.Churn(simD, nil)
		reused.Churn(simD, nil)

		for seed := uint64(2); seed <= 5; seed++ {
			fresh, err := fault.ChurnByName(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			simA, sysA := dynamicSim(t, g, seed)
			simB, sysB := dynamicSim(t, g, seed)
			fresh.Reset(seed)
			reused.Reset(seed)
			for fire := 0; fire < 4; fire++ {
				fa := fresh.Churn(simA, nil)
				fb := reused.Churn(simB, nil)
				if !slices.Equal(fa, fb) {
					t.Fatalf("%s seed %d fire %d: fresh affected %v, reused affected %v", name, seed, fire, fa, fb)
				}
				if !sysA.Graph().Equal(sysB.Graph()) { // identical op sequence ⇒ identical port order
					t.Fatalf("%s seed %d fire %d: fresh and reused topologies diverge", name, seed, fire)
				}
				simA.RunSteps(2)
				simB.RunSteps(2)
			}
			if !simA.Config().Equal(simB.Config()) {
				t.Fatalf("%s seed %d: fresh and reused configurations diverge", name, seed)
			}
		}
	}
}

// TestParseErrorsEnumerateShapes: rejected specs name every valid
// alternative, so a typo in a campaign file or CLI flag is
// self-correcting from the message alone.
func TestParseErrorsEnumerateShapes(t *testing.T) {
	t.Parallel()
	check := func(err error, wants ...string) {
		t.Helper()
		if err == nil {
			t.Fatal("bad spec accepted")
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("error %q does not mention %q", err, w)
			}
		}
	}
	_, err := fault.ParseSchedule("sometimes")
	check(err, "at-start", "at-step:T", "every:T[:N]", "on-silence[:N]")
	_, err = fault.ParseSchedule("every:x")
	check(err, "want a positive integer", "at-step:T")
	_, err = fault.ChurnByName("meteor", 1)
	check(err, "rewire", "cut", "crashjoin")
}
