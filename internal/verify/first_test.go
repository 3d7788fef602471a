package verify

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
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

// run evaluates First at process 0 of cfg on sys.
func (f *firstProbe) run(t *testing.T, ev *evaluator, sys *model.System, cfg *model.Config) evaluation {
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
	e := ev.run(f.twin, cfg, false, nil)
	e.action = f.action
	return e
}

// TestFirstMatchesGuards holds every family's First to its guard walk on
// every view of a process of degree d ≤ Δ ≤ 4: the same action, the same
// ports in first-read order and the same variables and back port read at
// each. The views are TestViewProof's, and whether they cover what the
// guards read is checked on every one. A family whose spec declares
// First with no views below (a derived spec that inherited one, say)
// fails by name.
func TestFirstMatchesGuards(t *testing.T) {
	t.Parallel()
	cover := map[string]func(delta, d int) ball{
		engine.FamColoring: fixedViews(engine.FamColoring),
		engine.FamMIS:      fixedViews(engine.FamMIS),
		engine.FamMatching: matchingViews,
	}
	for _, family := range engine.Families() {
		sys, err := engine.Build(graph.Cycle(4), family, nil)
		if err != nil {
			t.Fatal(err)
		}
		views, covered := cover[family]
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
			var guards, first evaluator
			var probe firstProbe
			n := 0
			for delta := 1; delta <= maxDelta; delta++ {
				for d := 1; d <= delta; d++ {
					b := views(delta, d)
					n += b.views(t, func(sys *model.System, cfg *model.Config) {
						want := guards.run(sys, cfg, false, nil)
						if got := probe.run(t, &first, sys, cfg); got != want {
							t.Fatalf("at %s:\n First  %+v\n guards %+v", describe(sys, cfg), got, want)
						}
						if !b.covers(want.reads, sys, cfg) {
							t.Fatalf("the guards read %+v at %s, which the views do not cover", want.reads, describe(sys, cfg))
						}
					})
				}
			}
			t.Logf("%d views: First fires the guards' action and makes their reads", n)
		})
	}
}
