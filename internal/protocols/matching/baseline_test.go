package matching

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// fullReadOracle is BaselineSpec as it was written first: every guard
// and every Apply body reads all four values of every port into scratch
// storage before it decides. TestBaselineReadsOnceMatchesOracle holds
// BaselineSpec, whose later bodies read only what they use, to it.
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
			v.pr[port-1] = c.NeighborComm(port, VarPR)
			v.m[port-1] = c.NeighborComm(port, VarM)
			v.color[port-1] = c.NeighborConst(port, ConstC)
			v.backPort[port-1] = c.BackPort(port)
		}
		return v
	}
	married := func(c *model.Ctx, v view) bool {
		pr := c.Comm(VarPR)
		return pr != 0 && v.pr[pr-1] == v.backPort[pr-1]
	}
	spec := BaselineSpec(maxColors)
	spec.Actions = []model.Action{
		{
			Name: "update married flag",
			Guard: func(c *model.Ctx) bool {
				v := readAll(c)
				m := 0
				if married(c, v) {
					m = 1
				}
				return c.Comm(VarM) != m
			},
			Apply: func(c *model.Ctx) {
				v := readAll(c)
				m := 0
				if married(c, v) {
					m = 1
				}
				c.SetComm(VarM, m)
			},
		},
		{
			Name: "marry a proposer",
			Guard: func(c *model.Ctx) bool {
				if c.Comm(VarPR) != 0 {
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
						c.SetComm(VarPR, i+1)
						return
					}
				}
			},
		},
		{
			Name: "seduce best free candidate",
			Guard: func(c *model.Ctx) bool {
				if c.Comm(VarPR) != 0 {
					return false
				}
				v := readAll(c)
				for i := range v.pr {
					if v.pr[i] == v.backPort[i] {
						return false
					}
				}
				for i := range v.pr {
					if v.pr[i] == 0 && v.m[i] == 0 && c.Const(ConstC) < v.color[i] {
						return true
					}
				}
				return false
			},
			Apply: func(c *model.Ctx) {
				v := readAll(c)
				best, bestColor := 0, -1
				for i := range v.pr {
					if v.pr[i] == 0 && v.m[i] == 0 && c.Const(ConstC) < v.color[i] && v.color[i] > bestColor {
						best, bestColor = i+1, v.color[i]
					}
				}
				c.SetComm(VarPR, best)
			},
		},
		{
			Name: "abandon dead proposal",
			Guard: func(c *model.Ctx) bool {
				pr := c.Comm(VarPR)
				if pr == 0 {
					return false
				}
				v := readAll(c)
				return v.pr[pr-1] != v.backPort[pr-1] &&
					(v.m[pr-1] == 1 || v.color[pr-1] < c.Const(ConstC))
			},
			Apply: func(c *model.Ctx) { c.SetComm(VarPR, 0) },
		},
	}
	return spec
}

// port is what a recordingView answers for one port: the neighbor's PR,
// M and C and the port p has in the neighbor's labelling.
type port struct{ pr, m, color, back int }

// evaluation is what one evaluation did: the action it fired, the own
// state it left, the distinct ports it read in first-read order and the
// bits it read.
type evaluation struct {
	action int
	comm   [2]int
	read   [3]int
	nread  int
	bits   int
}

// recordingView answers an evaluation's neighbor reads from ports and
// records, as the engine's aggregate does, the distinct ports read in
// first-read order and the bits read, each (port, kind, variable) once:
// here a communication variable v weighs v+1 bits and the constant 3.
type recordingView struct {
	ports []port
	ev    evaluation
	seen  [4][3]bool // [port][M, PR, C]
}

func (r *recordingView) note(port, slot, bits int) {
	if !slices.Contains(r.ev.read[:r.ev.nread], port) {
		r.ev.read[r.ev.nread] = port
		r.ev.nread++
	}
	if !r.seen[port][slot] {
		r.seen[port][slot] = true
		r.ev.bits += bits
	}
}

func (r *recordingView) NeighborComm(_ *model.Ctx, port, v int) int {
	r.note(port, v, v+1)
	if v == VarPR {
		return r.ports[port-1].pr
	}
	return r.ports[port-1].m
}

func (r *recordingView) NeighborConst(_ *model.Ctx, port, _ int) int {
	r.note(port, 2, 3)
	return r.ports[port-1].color
}

func (r *recordingView) BackPort(_ *model.Ctx, port int) int { return r.ports[port-1].back }

// TestBaselineReadsOnceMatchesOracle evaluates BaselineSpec and
// fullReadOracle on the center of a star of degree 1, 2 and 3 whose own
// color is the middle one of three, for every own (M, PR) and every
// assignment of (PR ∈ 0..3, M, C, back port ∈ 1..3) to each port that a
// neighbor of degree at most 3 in a proper coloring can hold (C is one
// of the two other colors), with and without Apply. Both must fire the same action, leave the same
// own state and read the same distinct neighbors in first-read order for
// the same bits.
func TestBaselineReadsOnceMatchesOracle(t *testing.T) {
	t.Parallel()
	const maxColors, ownColor = 3, 1
	var values []port
	for pr := range 4 {
		for m := range 2 {
			for _, color := range []int{ownColor - 1, ownColor + 1} {
				for back := 1; back <= 3; back++ {
					values = append(values, port{pr, m, color, back})
				}
			}
		}
	}
	for deg := 1; deg <= 3; deg++ {
		g := graph.Star(deg + 1)
		consts := make([][]int, g.N())
		for p := range consts {
			consts[p] = []int{ownColor}
		}
		var systems [2]*model.System
		for i, spec := range []*model.Spec{BaselineSpec(maxColors), fullReadOracle(maxColors)} {
			sys, err := model.NewSystem(g, spec, consts)
			if err != nil {
				t.Fatal(err)
			}
			systems[i] = sys
		}
		nbr := make([]int, deg)
		for i := range nbr {
			nbr[i] = i + 1
		}
		ports := make([]port, deg)
		view := &recordingView{ports: ports}
		comm := make([]int, 2)
		idx := make([]int, deg) // ports[i] = values[idx[i]]
		for {
			for i, k := range idx {
				ports[i] = values[k]
			}
			for m := range 2 {
				for pr := 0; pr <= deg; pr++ {
					for _, apply := range []bool{false, true} {
						var got [2]evaluation
						for i, sys := range systems {
							view.ev, view.seen = evaluation{}, [4][3]bool{}
							comm[VarM], comm[VarPR] = m, pr
							view.ev.action = model.Evaluate(sys, view, 0, nbr, comm, nil, apply, nil)
							view.ev.comm = [2]int(comm)
							got[i] = view.ev
						}
						if got[0] != got[1] {
							t.Fatalf("degree %d, own M=%d PR=%d, ports %+v, apply %v:\n spec   %+v\n oracle %+v",
								deg, m, pr, ports, apply, got[0], got[1])
						}
					}
				}
			}
			i := 0
			for ; i < deg; i++ {
				if idx[i]++; idx[i] < len(values) {
					break
				}
				idx[i] = 0
			}
			if i == deg {
				break
			}
		}
	}
}
