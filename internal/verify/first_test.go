package verify

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/bfstree"
	"repro/internal/rng"
)

// firstProbe evaluates a system's one-pass decision (model.Spec.First)
// where model.Evaluate walks the guards: on a twin of the system (same
// graph, same constants) whose only action's guard calls First, keeps
// its answer and declines. Evaluate then runs First through the
// evaluator's recorder, on a guard's context, where a write or a draw
// panics.
type firstProbe struct {
	of, twin *model.System
	action   int
}

// run evaluates First at process p of cfg on sys.
func (f *firstProbe) run(t *testing.T, ev *evaluator, sys *model.System, cfg *model.Config, p int) evaluation {
	t.Helper()
	if sys != f.of {
		spec := *sys.Spec()
		first := spec.First
		spec.First = nil
		spec.Actions = []model.Action{{
			Name:  "First",
			Guard: func(c *model.Ctx) bool { f.action = first(c); return false },
			Apply: func(*model.Ctx) {},
		}}
		var consts [][]int
		if len(spec.Const) > 0 {
			consts = make([][]int, sys.N())
			for p := range consts {
				for v := range spec.Const {
					consts[p] = append(consts[p], sys.Const(p, v))
				}
			}
		}
		twin, err := model.NewSystem(sys.Graph(), &spec, consts)
		if err != nil {
			t.Fatal(err)
		}
		f.of, f.twin = sys, twin
	}
	e := ev.runAt(f.twin, cfg, p, false, nil)
	e.action = f.action
	return e
}

// engineStep steps process p of a copy of cfg as every engine evaluation
// does, through model.StepProcess: First decides, and the Apply it picks
// runs with First's hand-off (model.Ctx.Kept), drawing from a generator
// seeded with seed. It returns the action and the own state p was left
// in, in an evaluation's layout.
func engineStep(sys *model.System, cfg *model.Config, p int, seed uint64) evaluation {
	work := cfg.Clone()
	e := evaluation{action: model.StepProcess(sys, work, p, rng.New(seed))}
	for v := range sys.CommWidth() {
		e.own[v] = work.Comm(p, v)
	}
	for v := range sys.InternalWidth() {
		e.own[sys.CommWidth()+v] = work.Internal(p, v)
	}
	return e
}

// firstCheck holds evaluations to the guard walk, reusing its
// evaluators, probe twin and seed from one to the next.
type firstCheck struct {
	guards, first evaluator
	probe         firstProbe
	seed          uint64
}

// run holds the evaluation of process p of cfg to the guard walk: First
// (through probe) must fire the guards' action with their reads, and
// where an action fires, the engine's step (engineStep) must leave p
// where Evaluate's guard walk and Apply leave it, drawing from the same
// seed. It returns the guards' evaluation and a description of the first
// mismatch ("" when none).
func (fc *firstCheck) run(t *testing.T, sys *model.System, cfg *model.Config, p int) (evaluation, string) {
	t.Helper()
	want := fc.guards.runAt(sys, cfg, p, false, nil)
	if got := fc.probe.run(t, &fc.first, sys, cfg, p); got != want {
		return want, fmt.Sprintf("First %+v, guards %+v", got, want)
	}
	if want.action < 0 {
		return want, ""
	}
	fc.seed++
	step := engineStep(sys, cfg, p, fc.seed)
	ref := fc.guards.runAt(sys, cfg, p, true, rng.New(fc.seed))
	if step.action != ref.action || step.own != ref.own {
		return want, fmt.Sprintf("the engine's step fires %d and leaves %v, Evaluate %d and %v", step.action, step.own, ref.action, ref.own)
	}
	return want, ""
}

// viewSet is one enumeration of views of process 0 (a ball of
// views_test.go, or bfsStar) and the check that the views it walked
// stand for every view the evaluation could have met.
type viewSet interface {
	views(t *testing.T, visit func(sys *model.System, cfg *model.Config)) int
	covers(l readLog, sys *model.System, cfg *model.Config) bool
}

// balls lists the balls of views for every degree d ≤ Δ ≤ maxDelta.
func balls(views func(delta, d int) ball) []viewSet {
	var out []viewSet
	for delta := 1; delta <= maxDelta; delta++ {
		for d := 1; d <= delta; d++ {
			out = append(out, views(delta, d))
		}
	}
	return out
}

// bfsStar declares the views of a BFS-tree process p of degree d: p is
// the hub of the star graph.Star(d+1) (leaf i behind port i), and the
// tree is rooted at p or at leaf 1 (engine.Build would root it at p
// alone). A view is every own (D, P) and every D of each leaf over 0..N;
// N is d+1, so a view whose leaves all sit at N reaches the clamp of D.
// p reads nothing else of the network but N and its own root flag:
// covers checks that no evaluation read a neighbor's P (held at 0), a
// constant or a back port.
type bfsStar struct{ d int }

// bfsViews lists the BFS-tree views for every degree d ≤ maxDelta.
func bfsViews() []viewSet {
	var out []viewSet
	for d := 1; d <= maxDelta; d++ {
		out = append(out, bfsStar{d})
	}
	return out
}

func (s bfsStar) views(t *testing.T, visit func(sys *model.System, cfg *model.Config)) int {
	t.Helper()
	g := graph.Star(s.d + 1)
	count := 0
	for _, root := range []int{0, 1} {
		sys, err := bfstree.NewSystem(g, bfstree.Spec(), root)
		if err != nil {
			t.Fatal(err)
		}
		cfg := model.NewZeroConfig(sys)
		for more := true; more; more = s.next(sys, cfg) {
			visit(sys, cfg)
			count++
		}
	}
	return count
}

// next advances cfg to the next view: p's (D, P) are the low digits,
// each leaf's D the next ones. It reports false when every view has been
// visited.
func (s bfsStar) next(sys *model.System, cfg *model.Config) bool {
	if nextState(sys, cfg, 0) {
		return true
	}
	for q := 1; q <= s.d; q++ {
		if x := cfg.Comm(q, bfstree.VarD) + 1; x <= sys.N() {
			cfg.SetComm(q, bfstree.VarD, x)
			return true
		}
		cfg.SetComm(q, bfstree.VarD, 0)
	}
	return false
}

func (bfsStar) covers(l readLog, _ *model.System, _ *model.Config) bool {
	for _, m := range l.mask {
		if m&^(1<<bfstree.VarD) != 0 {
			return false
		}
	}
	return true
}

// TestFirstMatchesGuards holds every family's First to its guard walk on
// every view of a process of degree d ≤ 4: the same action, the same
// ports in first-read order and the same variables and back port read at
// each; and where an action fires, the engine's step (First, then the
// Apply with First's hand-off) must leave the process where the guard
// walk and the Apply leave it. COLORING's, MIS's and MATCHING's views are
// TestViewProof's balls (Δ ≤ 4), the BFS tree's are stars (bfsStar), and
// whether they cover what the guards read is checked on every one. A
// family whose spec declares First with no views below (a derived spec
// that inherited one, say) fails by name.
func TestFirstMatchesGuards(t *testing.T) {
	t.Parallel()
	cover := map[string][]viewSet{
		engine.FamColoring: balls(fixedViews(engine.FamColoring)),
		engine.FamMIS:      balls(fixedViews(engine.FamMIS)),
		engine.FamMatching: balls(matchingViews),
		engine.FamBFSTree:  bfsViews(),
	}
	for _, family := range engine.Families() {
		sys, err := engine.Build(graph.Cycle(4), family, nil)
		if err != nil {
			t.Fatal(err)
		}
		sets, covered := cover[family]
		switch declared := sys.Spec().First != nil; {
		case declared && !covered:
			t.Errorf("%s declares First, and no view enumeration holds it to its guards", family)
			continue
		case !declared && covered:
			t.Errorf("%s declares no First: drop its views from the table", family)
			continue
		case !declared:
			continue
		}
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			var check firstCheck
			n := 0
			for _, set := range sets {
				n += set.views(t, func(sys *model.System, cfg *model.Config) {
					want, diff := check.run(t, sys, cfg, 0)
					if diff != "" {
						t.Fatalf("at %s:\n %s", describe(sys, cfg), diff)
					}
					if !set.covers(want.reads, sys, cfg) {
						t.Fatalf("the guards read %+v at %s, which the views do not cover", want.reads, describe(sys, cfg))
					}
				})
			}
			t.Logf("%d views: First fires the guards' action and makes their reads, and the engine's step writes what the statement does", n)
		})
	}
}

// TestBFSFirstOnBenchGraphs is TestFirstMatchesGuards's check for the BFS
// tree at every process of random configurations of the benchmark's
// cycle-256 and grid-20x20, rooted at process 0 and at a middle one. D is
// drawn from {0, 1, 2, N−1, N}, so neighbors tie for the minimum and the
// clamp of D to N is reached at a large N, which the star views' N ≤ 5
// does not stand for.
func TestBFSFirstOnBenchGraphs(t *testing.T) {
	t.Parallel()
	for _, g := range []*graph.Graph{graph.Cycle(256), graph.Grid(20, 20)} {
		for _, root := range []int{0, g.N() / 2} {
			sys, err := bfstree.NewSystem(g, bfstree.Spec(), root)
			if err != nil {
				t.Fatal(err)
			}
			n := sys.N()
			values := []int{0, 1, 2, n - 1, n}
			r := rng.New(uint64(root))
			cfg := model.NewZeroConfig(sys)
			var check firstCheck
			fired := 0
			for range 8 {
				for p := range n {
					cfg.SetComm(p, bfstree.VarD, values[r.Intn(len(values))])
					cfg.SetComm(p, bfstree.VarP, r.Intn(g.Degree(p)+1))
				}
				for p := range n {
					want, diff := check.run(t, sys, cfg, p)
					if diff != "" {
						t.Fatalf("%s rooted at %d, process %d: %s", g.Name(), root, p, diff)
					}
					if want.action >= 0 {
						fired++
					}
				}
			}
			t.Logf("%s rooted at %d: %d evaluations fire", g.Name(), root, fired)
		}
	}
}
