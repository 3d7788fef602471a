package mis

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestExactStabilityStructure pins down the exact shape of Theorem 6's
// stability: in the silent configuration, every dominated process's
// eventual read set is exactly its cur Dominator, and every Dominator
// keeps scanning its entire neighborhood.
func TestExactStabilityStructure(t *testing.T) {
	for _, g := range suite(t) {
		sys := buildSystem(t, g, false)
		res := runOnce(t, sys, sched.NewRandomSubset(61), 61, 0)
		if !res.Silent {
			t.Fatalf("%s: no silence", g)
		}
		prof, err := model.AnalyzeStability(sys, res.Final)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		wantOneStable := 0
		for p := 0; p < g.N(); p++ {
			if res.Final.Comm(p, VarS) == Dominated {
				cur := res.Final.Internal(p, VarCur)
				want := g.Neighbor(p, cur+1)
				got := prof.ReadSets[p]
				if len(got) != 1 || got[0] != want {
					t.Fatalf("%s: dominated %d eventually reads %v, want [%d]", g, p, got, want)
				}
				wantOneStable++
			} else {
				if len(prof.ReadSets[p]) != g.Degree(p) {
					t.Fatalf("%s: Dominator %d eventually reads %v, want all %d neighbors",
						g, p, prof.ReadSets[p], g.Degree(p))
				}
				if g.Degree(p) <= 1 {
					wantOneStable++
				}
			}
		}
		if prof.OneStable != wantOneStable {
			t.Fatalf("%s: exact OneStable=%d, structural count=%d", g, prof.OneStable, wantOneStable)
		}
	}
}

// TestExactVersusObservedStability: the finite observed suffix can only
// over-count 1-stable processes relative to the exact limit.
func TestExactVersusObservedStability(t *testing.T) {
	g := graph.Grid(3, 4)
	sys := buildSystem(t, g, false)
	res := runOnce(t, sys, sched.NewRandomSubset(67), 67, 6*g.N())
	if !res.Silent {
		t.Fatal("no silence")
	}
	prof, err := model.AnalyzeStability(sys, res.Final)
	if err != nil {
		t.Fatal(err)
	}
	observed := res.Report.StableProcesses(1)
	if observed < prof.OneStable {
		t.Fatalf("observed 1-stable (%d) below exact limit (%d): impossible", observed, prof.OneStable)
	}
	lmax, err := g.LongestPathExact(24)
	if err != nil {
		t.Fatal(err)
	}
	if prof.OneStable < StabilityBound(lmax) {
		t.Fatalf("exact 1-stable %d below Theorem 6 bound %d", prof.OneStable, StabilityBound(lmax))
	}
	// MIS is exactly ♦-Δ-stable in the limit: dominators scan everything.
	if prof.SuffixK > g.MaxDegree() {
		t.Fatalf("suffix k = %d exceeds Δ", prof.SuffixK)
	}
}
