package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/rng"
	"repro/internal/sched"
)

// driveFull runs a complete trial shape — run to silence, mark the
// suffix, then a few more rounds so the simulator's silent-phase replay
// feeds the recorder too — and returns the report.
func driveFull(t *testing.T, rec *Recorder, g *graph.Graph, seed uint64) Report {
	t.Helper()
	sys, err := model.NewSystem(g, coloring.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	rec.Reset(sys.N())
	sim, err := model.NewSimulator(sys, cfg, sched.NewRandomSubset(seed), seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := sim.RunUntilSilent(200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !silent {
		t.Fatal("trial did not reach silence")
	}
	rec.MarkSuffix()
	sim.RunRounds(3)
	return rec.Report()
}

// TestSparseRecorderMatchesDense: the list-backed read sets the recorder
// switches to above sparseThreshold must report byte-identically to the
// dense bitsets, over full trials including suffix tracking and the
// silent-phase replay path. Not parallel: it lowers the package
// threshold to force the sparse representation at test sizes.
func TestSparseRecorderMatchesDense(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(9),
		graph.Star(8),
		graph.RandomConnectedGNP(14, 0.25, rng.New(3)),
	}
	for gi, g := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			dense := driveFull(t, NewRecorder(g.N()), g, seed)

			old := sparseThreshold
			sparseThreshold = 1
			rec := NewRecorder(g.N())
			if !rec.sparse {
				t.Fatal("threshold override did not force the sparse representation")
			}
			sparse := driveFull(t, rec, g, seed)
			sparseThreshold = old

			if !reflect.DeepEqual(dense, sparse) {
				t.Fatalf("graph %d seed %d: sparse report differs from dense:\ndense  %+v\nsparse %+v",
					gi, seed, dense, sparse)
			}
		}
	}
}

// TestSparseResetSwitchesRepresentation: a recorder Reset across the
// threshold must swap representations cleanly in both directions and
// keep reporting like a fresh instance.
func TestSparseResetSwitchesRepresentation(t *testing.T) {
	old := sparseThreshold
	defer func() { sparseThreshold = old }()

	g := graph.Cycle(9)
	rec := NewRecorder(g.N()) // dense at the real threshold
	want := driveFull(t, NewRecorder(g.N()), g, 5)

	sparseThreshold = 1 // next Reset (inside driveFull) goes sparse
	gotSparse := driveFull(t, rec, g, 5)
	sizesWant, sizesGot := want.ReadSetSizes, gotSparse.ReadSetSizes
	if !reflect.DeepEqual(sizesWant, sizesGot) {
		t.Fatalf("dense→sparse switch: read-set sizes %v, want %v", sizesGot, sizesWant)
	}
	if !reflect.DeepEqual(want, gotSparse) {
		t.Fatalf("dense→sparse switch: report differs:\nwant %+v\ngot  %+v", want, gotSparse)
	}

	sparseThreshold = old // and back to dense
	gotDense := driveFull(t, rec, g, 5)
	if !reflect.DeepEqual(want, gotDense) {
		t.Fatalf("sparse→dense switch: report differs:\nwant %+v\ngot  %+v", want, gotDense)
	}
}

// TestSparseSuffixFlagsMatchDense drives a dense and a sparse recorder
// through one script of selections with two MarkSuffix calls, re-reading
// neighbors after each mark in another order than they were first read,
// and compares the reports after every call. The sparse form keeps the
// suffix set as a flag on each whole-run member, so what it must get
// right is a member that is re-flagged, one that stays unflagged
// (process 1 reads nothing after the first mark: whole-run set {0},
// suffix set empty) and one that joins after a mark. Not parallel: it
// lowers the package threshold.
func TestSparseSuffixFlagsMatchDense(t *testing.T) {
	const n = 6
	type sel struct {
		p  int
		qs []int
	}
	stages := [][]sel{
		{{0, []int{1, 2, 3}}, {1, []int{0}}, {2, []int{5, 4}}, {0, []int{3}}},
		{{0, []int{3, 1}}, {2, []int{4}}, {0, []int{1}}, {3, []int{0}}},
		{{0, []int{2}}, {2, []int{4, 5}}, {4, nil}, {3, []int{5, 0}}},
	}

	dense := NewRecorder(n)
	old := sparseThreshold
	sparseThreshold = 1
	sparse := NewRecorder(n)
	sparseThreshold = old
	if dense.sparse || !sparse.sparse {
		t.Fatalf("representations: dense.sparse=%v sparse.sparse=%v", dense.sparse, sparse.sparse)
	}

	var d, s Report
	compare := func(at string) {
		t.Helper()
		dense.ReportInto(&d)
		sparse.ReportInto(&s)
		if !reflect.DeepEqual(d, s) {
			t.Fatalf("%s: sparse report differs from dense:\ndense  %+v\nsparse %+v", at, d, s)
		}
	}
	for i, stage := range stages {
		if i > 0 {
			dense.MarkSuffix()
			sparse.MarkSuffix()
			compare(fmt.Sprintf("after mark %d", i))
		}
		for j, c := range stage {
			for _, rec := range []*Recorder{dense, sparse} {
				rec.Selected(i, c.p, c.qs, 2*len(c.qs), 0, 1+j)
			}
			compare(fmt.Sprintf("stage %d call %d", i, j))
		}
		if i == 1 && (d.ReadSetSizes[1] != 1 || d.SuffixReadSetSizes[1] != 0) {
			t.Fatalf("process 1 after the first mark: |R|=%d, suffix |R|=%d, want 1 and 0",
				d.ReadSetSizes[1], d.SuffixReadSetSizes[1])
		}
	}
	if want := []int{3, 1, 2, 2, 0, 0}; !reflect.DeepEqual(s.ReadSetSizes, want) {
		t.Fatalf("whole-run sizes %v, want %v", s.ReadSetSizes, want)
	}
	if want := []int{1, 0, 2, 2, 0, 0}; !reflect.DeepEqual(s.SuffixReadSetSizes, want) {
		t.Fatalf("suffix sizes %v, want %v", s.SuffixReadSetSizes, want)
	}
}
