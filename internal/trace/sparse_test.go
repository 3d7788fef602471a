package trace

import (
	"fmt"
	"reflect"
	"slices"
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

// suffixSizes lists |R_p| since the last MarkSuffix for every process.
func suffixSizes(rec *Recorder) []int {
	out := make([]int, rec.n)
	for p := range out {
		out[p] = rec.suffixSize(p)
	}
	return out
}

// sparseAlways lowers the package threshold so that every NewRecorder
// and Reset picks the sparse form, until the returned func restores it.
func sparseAlways() (restore func()) {
	old := sparseThreshold
	sparseThreshold = 1
	return func() { sparseThreshold = old }
}

// forcedSparse returns a recorder for n processes in the sparse form,
// whatever n is. A Reset at the real threshold turns it dense again.
func forcedSparse(t *testing.T, n int) *Recorder {
	t.Helper()
	defer sparseAlways()()
	rec := NewRecorder(n)
	if !rec.sparse {
		t.Fatal("threshold override did not force the sparse representation")
	}
	return rec
}

// TestSparseRecorderMatchesDense: the slab-backed read sets the recorder
// switches to above sparseThreshold must report identically to the
// dense bitsets, over full trials including suffix tracking and the
// silent-phase replay path, and over a churn script that moves runs out
// of their first rows (see checkSlabRelocation). Not parallel: it lowers
// the package threshold to force the sparse representation at test
// sizes.
func TestSparseRecorderMatchesDense(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(9),
		graph.Star(8),
		graph.RandomConnectedGNP(14, 0.25, rng.New(3)),
	}
	for gi, g := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			denseRec := NewRecorder(g.N())
			dense := driveFull(t, denseRec, g, seed)
			restore := sparseAlways() // driveFull resets the recorder
			sparseRec := NewRecorder(g.N())
			sparse := driveFull(t, sparseRec, g, seed)
			restore()
			if denseRec.sparse || !sparseRec.sparse {
				t.Fatalf("representations: dense.sparse=%v sparse.sparse=%v", denseRec.sparse, sparseRec.sparse)
			}
			if !reflect.DeepEqual(dense, sparse) {
				t.Fatalf("graph %d seed %d: sparse report differs from dense:\ndense  %+v\nsparse %+v",
					gi, seed, dense, sparse)
			}
			if d, s := suffixSizes(denseRec), suffixSizes(sparseRec); !reflect.DeepEqual(d, s) {
				t.Fatalf("graph %d seed %d: sparse suffix sizes %v, dense %v", gi, seed, s, d)
			}
		}
	}
	checkSlabRelocation(t)
}

// tee is an Observer that forwards every call to a dense and a sparse
// recorder, checks after each that they report alike, and keeps the
// sparse recorder's calls for a replay.
type tee struct {
	t             *testing.T
	dense, sparse *Recorder
	replay        []func(*Recorder)
	d, s          Report
}

func (o *tee) call(f func(*Recorder), at string) {
	o.t.Helper()
	f(o.dense)
	f(o.sparse)
	o.replay = append(o.replay, f)
	o.dense.ReportInto(&o.d)
	o.sparse.ReportInto(&o.s)
	if !reflect.DeepEqual(o.d, o.s) {
		o.t.Fatalf("%s: sparse report differs from dense:\ndense  %+v\nsparse %+v", at, o.d, o.s)
	}
	if d, s := suffixSizes(o.dense), suffixSizes(o.sparse); !reflect.DeepEqual(d, s) {
		o.t.Fatalf("%s: sparse suffix sizes %v, dense %v", at, s, d)
	}
}

func (o *tee) StepBegin(step int, selected []int) {
	sel := slices.Clone(selected)
	o.call(func(r *Recorder) { r.StepBegin(step, sel) }, fmt.Sprintf("StepBegin %d", step))
}

func (o *tee) Selected(step, p int, neighbors []int, bits, fired, times int) {
	qs := slices.Clone(neighbors)
	o.call(func(r *Recorder) { r.Selected(step, p, qs, bits, fired, times) }, fmt.Sprintf("Selected %d of step %d", p, step))
}

func (o *tee) CommWrite(step, p, v, old, new int) {
	o.call(func(r *Recorder) { r.CommWrite(step, p, v, old, new) }, fmt.Sprintf("CommWrite %d of step %d", p, step))
}

func (o *tee) StepEnd(step int, selected []int, roundCompleted bool) {
	sel := slices.Clone(selected)
	o.call(func(r *Recorder) { r.StepEnd(step, sel, roundCompleted) }, fmt.Sprintf("StepEnd %d", step))
}

// checkSlabRelocation runs a churn script on a MutableCopy of a 10-star
// whose guards read every port, into a dense and a sparse recorder at
// once. The hub starts at degree 4, a full first row; a rewire lifts it
// to 6, which moves its run to the slab's end; after a MarkSuffix it
// reads its 6 neighbors again, and a crash-join restores all 9, which
// fills the moved run's 8 slots and moves it once more. The reports
// must agree after every call, and the same calls replayed after a
// Reset must allocate nothing: the slab keeps its storage.
func checkSlabRelocation(t *testing.T) {
	t.Helper()
	sys, err := model.NewSystem(graph.Star(10), twoReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sys = sys.MutableCopy()
	n := sys.N()
	o := &tee{t: t, dense: NewRecorder(n), sparse: forcedSparse(t, n)}
	sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), sched.NewSynchronous(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	topo := func(kind model.TopologyKind, u, v int) {
		t.Helper()
		sim.ApplyTopology(model.TopologyEvent{Kind: kind, U: u, V: v}, nil)
	}
	hub := func(want int) {
		t.Helper()
		if got := o.sparse.suffixSize(0); got != want {
			t.Fatalf("hub's suffix read set has %d members, want %d", got, want)
		}
	}
	for q := 5; q < n; q++ {
		topo(model.TopoEdgeRemove, 0, q)
	}
	sim.RunSteps(3)
	hub(firstRow)
	if len(o.sparse.slab) != n*firstRow {
		t.Fatalf("slab holds %d slots before any run outgrew its first row, want %d", len(o.sparse.slab), n*firstRow)
	}
	topo(model.TopoEdgeAdd, 0, 5) // the rewire
	topo(model.TopoEdgeAdd, 0, 6)
	sim.RunSteps(3)
	hub(6)
	o.call(func(r *Recorder) { r.MarkSuffix() }, "MarkSuffix")
	hub(0)
	sim.RunSteps(2)
	hub(6)
	topo(model.TopoCrash, 0, 0) // the crash-join
	sim.RunSteps(2)
	topo(model.TopoJoin, 0, 0)
	sim.RunSteps(3)
	hub(n - 1)
	if want := n*firstRow + 8 + 16; len(o.sparse.slab) != want {
		t.Fatalf("slab holds %d slots after the hub's run moved twice, want %d", len(o.sparse.slab), want)
	}

	final := o.s
	var rep Report
	restore := sparseAlways() // so that Reset keeps the sparse form
	allocs := testing.AllocsPerRun(5, func() {
		o.sparse.Reset(n)
		for _, f := range o.replay {
			f(o.sparse)
		}
		o.sparse.ReportInto(&rep)
	})
	restore()
	if !o.sparse.sparse {
		t.Fatal("the replay ran on the dense form")
	}
	if allocs != 0 {
		t.Fatalf("replaying the script after Reset allocated %.1f times per run, want 0", allocs)
	}
	if !reflect.DeepEqual(rep, final) {
		t.Fatalf("replayed report differs:\nfirst  %+v\nreplay %+v", final, rep)
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
	fresh := NewRecorder(g.N())
	want := driveFull(t, fresh, g, 5)
	sizesWant := suffixSizes(fresh)

	sparseThreshold = 1 // next Reset (inside driveFull) goes sparse
	gotSparse := driveFull(t, rec, g, 5)
	if !rec.sparse {
		t.Fatal("dense→sparse switch: the recorder stayed dense")
	}
	if sizesGot := suffixSizes(rec); !reflect.DeepEqual(sizesWant, sizesGot) {
		t.Fatalf("dense→sparse switch: read-set sizes %v, want %v", sizesGot, sizesWant)
	}
	if !reflect.DeepEqual(want, gotSparse) {
		t.Fatalf("dense→sparse switch: report differs:\nwant %+v\ngot  %+v", want, gotSparse)
	}

	sparseThreshold = old // and back to dense
	gotDense := driveFull(t, rec, g, 5)
	if sizesGot := suffixSizes(rec); !reflect.DeepEqual(sizesWant, sizesGot) {
		t.Fatalf("sparse→dense switch: read-set sizes %v, want %v", sizesGot, sizesWant)
	}
	if !reflect.DeepEqual(want, gotDense) {
		t.Fatalf("sparse→dense switch: report differs:\nwant %+v\ngot  %+v", want, gotDense)
	}
}

// TestSparseSuffixFlagsMatchDense drives a dense and a sparse recorder
// through one script of selections with two MarkSuffix calls, re-reading
// neighbors after each mark in another order than they were first read,
// and compares the reports and every process's suffix read set after
// every call. What the sparse form must get right is a set that refills
// from its first row after a mark, one that stays empty (process 1
// reads nothing after the first mark) and one that only fills after a
// mark (process 3). Not parallel: it lowers the package threshold.
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

	dense, sparse := NewRecorder(n), forcedSparse(t, n)
	if dense.sparse {
		t.Fatal("a 6-process recorder is sparse at the real threshold")
	}

	var d, s Report
	compare := func(at string) {
		t.Helper()
		dense.ReportInto(&d)
		sparse.ReportInto(&s)
		if !reflect.DeepEqual(d, s) {
			t.Fatalf("%s: sparse report differs from dense:\ndense  %+v\nsparse %+v", at, d, s)
		}
		if ds, ss := suffixSizes(dense), suffixSizes(sparse); !reflect.DeepEqual(ds, ss) {
			t.Fatalf("%s: sparse suffix sizes %v, dense %v", at, ss, ds)
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
		if i == 1 && sparse.suffixSize(1) != 0 {
			t.Fatalf("process 1 after the first mark: suffix |R|=%d, want 0", sparse.suffixSize(1))
		}
	}
	if want := []int{1, 0, 2, 2, 0, 0}; !reflect.DeepEqual(suffixSizes(sparse), want) {
		t.Fatalf("suffix sizes %v, want %v", suffixSizes(sparse), want)
	}
	if want := []int{3, 1, 2}; !reflect.DeepEqual(s.SuffixReadSetHist, want) {
		t.Fatalf("suffix read-set histogram %v, want %v", s.SuffixReadSetHist, want)
	}
}
