package verify

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/matching"
)

// fullReadOracle is matching.BaselineSpec as it was written first: every
// guard and every Apply body reads all four values of every port into
// scratch storage before it decides. TestBaselineReadsOnceMatchesOracle
// holds BaselineSpec, whose later bodies read only what they use, to it.
func fullReadOracle(maxColors int) *model.Spec {
	type view struct {
		pr, m, color, backPort []int
	}
	readAll := func(c *model.Ctx) view {
		deg := c.Deg()
		buf := c.Scratch(4 * deg)
		v := view{
			pr:       buf[:deg],
			m:        buf[deg : 2*deg],
			color:    buf[2*deg : 3*deg],
			backPort: buf[3*deg:],
		}
		for port := 1; port <= c.Deg(); port++ {
			v.pr[port-1] = c.NeighborComm(port, matching.VarPR)
			v.m[port-1] = c.NeighborComm(port, matching.VarM)
			v.color[port-1] = c.NeighborConst(port, matching.ConstC)
			v.backPort[port-1] = c.BackPort(port)
		}
		return v
	}
	married := func(c *model.Ctx, v view) bool {
		pr := c.Comm(matching.VarPR)
		return pr != 0 && v.pr[pr-1] == v.backPort[pr-1]
	}
	spec := matching.BaselineSpec(maxColors)
	spec.Actions = []model.Action{
		{
			Name: "update married flag",
			Guard: func(c *model.Ctx) bool {
				v := readAll(c)
				m := 0
				if married(c, v) {
					m = 1
				}
				return c.Comm(matching.VarM) != m
			},
			Apply: func(c *model.Ctx) {
				v := readAll(c)
				m := 0
				if married(c, v) {
					m = 1
				}
				c.SetComm(matching.VarM, m)
			},
		},
		{
			Name: "marry a proposer",
			Guard: func(c *model.Ctx) bool {
				if c.Comm(matching.VarPR) != 0 {
					return false
				}
				v := readAll(c)
				for i := range v.pr {
					if v.pr[i] == v.backPort[i] {
						return true
					}
				}
				return false
			},
			Apply: func(c *model.Ctx) {
				v := readAll(c)
				for i := range v.pr {
					if v.pr[i] == v.backPort[i] {
						c.SetComm(matching.VarPR, i+1)
						return
					}
				}
			},
		},
		{
			Name: "seduce best free candidate",
			Guard: func(c *model.Ctx) bool {
				if c.Comm(matching.VarPR) != 0 {
					return false
				}
				v := readAll(c)
				for i := range v.pr {
					if v.pr[i] == v.backPort[i] {
						return false
					}
				}
				for i := range v.pr {
					if v.pr[i] == 0 && v.m[i] == 0 && c.Const(matching.ConstC) < v.color[i] {
						return true
					}
				}
				return false
			},
			Apply: func(c *model.Ctx) {
				v := readAll(c)
				best, bestColor := 0, -1
				for i := range v.pr {
					if v.pr[i] == 0 && v.m[i] == 0 && c.Const(matching.ConstC) < v.color[i] && v.color[i] > bestColor {
						best, bestColor = i+1, v.color[i]
					}
				}
				c.SetComm(matching.VarPR, best)
			},
		},
		{
			Name: "abandon dead proposal",
			Guard: func(c *model.Ctx) bool {
				pr := c.Comm(matching.VarPR)
				if pr == 0 {
					return false
				}
				v := readAll(c)
				return v.pr[pr-1] != v.backPort[pr-1] &&
					(v.m[pr-1] == 1 || v.color[pr-1] < c.Const(matching.ConstC))
			},
			Apply: func(c *model.Ctx) { c.SetComm(matching.VarPR, 0) },
		},
	}
	return spec
}

// TestBaselineReadsOnceMatchesOracle evaluates matching.BaselineSpec and
// fullReadOracle on every view of a process of degree d ≤ Δ ≤ 3 with
// every port p can have at each neighbor (ball.structural; neighbors have
// degree Δ, so every PR and back port a neighbor of smaller degree holds
// is among the views), with and without Apply. Both must fire the same
// action, leave the same own state and read the same ports in first-read
// order and the same variables at each. The palette has three colors and
// p carries the lowest (a view can hold two higher neighbors of
// different colors, seduce's choice) or the middle one (a lower and a
// higher neighbor), one subtest each; p of the highest color would add
// only more lower neighbors, at half the cost again.
func TestBaselineReadsOnceMatchesOracle(t *testing.T) {
	t.Parallel()
	const palette = 3
	for own := 1; own < palette; own++ {
		t.Run(fmt.Sprintf("color-%d", own), func(t *testing.T) {
			t.Parallel()
			oracle := map[*model.System]*model.System{}
			build := func(g *graph.Graph, colors []int) (*model.System, error) {
				if colors != nil && colors[0] != own {
					return nil, errors.New("p carries another color")
				}
				sys, err := matching.NewSystem(g, matching.BaselineSpec(palette), colors)
				if err == nil {
					oracle[sys], err = matching.NewSystem(g, fullReadOracle(palette), colors)
				}
				return sys, err
			}
			var ev evaluator
			views := 0
			for delta := 1; delta <= 3; delta++ {
				for d := 1; d <= delta; d++ {
					views += ball{delta: delta, d: d, structural: true, build: build}.views(t, func(sys *model.System, cfg *model.Config) {
						for _, apply := range []bool{true, false} {
							got, want := ev.run(sys, cfg, apply, nil), ev.run(oracle[sys], cfg, apply, nil)
							if got != want {
								t.Fatalf("apply %v at %s:\n spec   %+v\n oracle %+v", apply, describe(sys, cfg), got, want)
							}
							if got.action < 0 {
								break // disabled: the evaluation without Apply is the same
							}
						}
					})
				}
			}
			t.Logf("%d views", views)
		})
	}
}

// TestFixedDegreeViewsRefuseMatching: MATCHING reads back ports and PR,
// whose domain grows with the degree, so views with fixed neighbor
// degrees and back ports cannot stand for it, and the check TestViewProof
// leans on says so.
func TestFixedDegreeViewsRefuseMatching(t *testing.T) {
	var ev evaluator
	found := false
	ball{delta: 2, d: 2, build: familyBuild(engine.FamMatching)}.views(t, func(sys *model.System, cfg *model.Config) {
		found = found || ev.run(sys, cfg, true, nil).reads.structural(sys.Spec(), sys.N(), 2)
	})
	if !found {
		t.Fatal("no MATCHING step reads a back port or a degree-dependent variable")
	}
}
