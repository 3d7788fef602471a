package trace

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sched"
)

// driveRecorder runs a short deterministic execution into rec and
// returns its report.
func driveRecorder(t *testing.T, rec *Recorder, seed uint64, steps int) Report {
	t.Helper()
	g := graph.Cycle(5)
	sys, err := model.NewSystem(g, twoReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, int(seed%8))
	sim, err := model.NewSimulator(sys, cfg, sched.NewCentralRoundRobin(), seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(steps / 2)
	rec.MarkSuffix()
	sim.RunSteps(steps - steps/2)
	return rec.Report()
}

// TestRecorderResetMatchesFresh: a reused recorder must report exactly
// what a freshly constructed one does, including suffix state.
func TestRecorderResetMatchesFresh(t *testing.T) {
	t.Parallel()
	reused := NewRecorder(5)
	driveRecorder(t, reused, 1, 30) // dirty it
	for seed := uint64(2); seed <= 4; seed++ {
		reused.Reset(5)
		got := driveRecorder(t, reused, seed, 24)
		want := driveRecorder(t, NewRecorder(5), seed, 24)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: reset recorder reports\n%+v\nfresh reports\n%+v", seed, got, want)
		}
	}
	// Resizing reset: rebind to a different n and back.
	reused.Reset(9)
	reused.Reset(5)
	got := driveRecorder(t, reused, 7, 24)
	want := driveRecorder(t, NewRecorder(5), 7, 24)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resize-reset recorder reports\n%+v\nfresh reports\n%+v", got, want)
	}
}

// TestResetMidStepResize: a Reset to a different n landing between
// Selected and StepEnd must leave nothing of the in-flight step behind;
// the old n's process ids are out of range for the new one.
func TestResetMidStepResize(t *testing.T) {
	t.Parallel()
	rec := NewRecorder(9)
	rec.StepBegin(0, 1)
	rec.Selected(0, 8, []int{7}, 3, 0, 1)
	rec.Reset(3) // shrink mid-step
	rec.StepBegin(0, 1)
	rec.Selected(0, 0, []int{1}, 3, 0, 1)
	rec.StepEnd(0, 1, false)
	want := Report{N: 3, Steps: 1, Moves: 1, Selections: 1, KEfficiency: 1, CommComplexityBits: 3,
		TotalBits: 3, TotalReads: 1, SuffixReadSetHist: []int{2, 1},
		SuffixSteps: 1, SuffixTotalBits: 3, SuffixTotalReads: 1, SuffixSelections: 1, SuffixMoves: 1}
	if rep := rec.Report(); !reflect.DeepEqual(rep, want) {
		t.Fatalf("post-resize report = %+v, want %+v", rep, want)
	}
	for p, want := range []int{1, 0, 0} {
		if got := int(rec.size[p]); got != want {
			t.Fatalf("post-resize |R_%d| = %d, want %d", p, got, want)
		}
	}
}

// TestReportIntoReusesSlices: ReportInto must fill a reused Report
// without reallocating its histogram, and agree with Report.
func TestReportIntoReusesSlices(t *testing.T) {
	t.Parallel()
	rec := NewRecorder(5)
	want := driveRecorder(t, rec, 3, 20)
	var rep Report
	rec.ReportInto(&rep)
	if !reflect.DeepEqual(want, rep) {
		t.Fatalf("ReportInto = %+v, Report = %+v", rep, want)
	}
	h0 := &rep.SuffixReadSetHist[0]
	rec.ReportInto(&rep)
	if &rep.SuffixReadSetHist[0] != h0 {
		t.Fatal("ReportInto reallocated a histogram that had sufficient capacity")
	}
}

// scriptedRead is one neighbor read of a scripted guard: communication
// variable v, or constant v with konst set, of the neighbor behind port.
type scriptedRead struct {
	port  int
	konst bool
	v     int
}

// The kinds a scriptedRead names.
const comm, konst = false, true

// pinned is a scheduler that selects the same processes every step.
type pinned []int

func (pinned) Name() string                                     { return "pinned" }
func (s pinned) Select(int, *model.System, *model.Config) []int { return s }

// runScript selects process 0 of an n-cycle for the given number of
// steps; each selection performs the scripted reads in order (as a guard
// that then reports disabled), every variable being `bits` wide. The
// dedup under test is the engine's (model.Ctx folds reads as they
// happen); the recorder receives the folded aggregate.
func runScript(t *testing.T, n int, reads []scriptedRead, bits, steps int) Report {
	t.Helper()
	dom := model.FixedDomain(1 << bits)
	spec := &model.Spec{
		Name:  "SCRIPT",
		Const: []model.VarSpec{{Name: "K", Domain: dom}},
		Actions: []model.Action{{
			Name: "read",
			Guard: func(c *model.Ctx) bool {
				for _, r := range reads {
					if r.konst {
						c.NeighborConst(r.port, r.v)
					} else {
						c.NeighborComm(r.port, r.v)
					}
				}
				return false
			},
			Apply: func(*model.Ctx) {},
		}},
	}
	for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
		spec.Comm = append(spec.Comm, model.VarSpec{Name: name, Domain: dom})
	}
	consts := make([][]int, n)
	for p := range consts {
		consts[p] = []int{0}
	}
	sys, err := model.NewSystem(graph.Cycle(n), spec, consts)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(n)
	sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), pinned{0}, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(steps)
	return rec.Report()
}

// TestReadDedupStampedVsFallback: a read sequence with duplicates across
// (neighbor, kind, variable) must be accounted identically at every n.
// The recorder used to switch dedup structures at n = 128; the engine's
// port-keyed fold has one regime, and this test keeps both sides of the
// old boundary covered.
func TestReadDedupStampedVsFallback(t *testing.T) {
	t.Parallel()
	reads := []scriptedRead{
		{1, comm, 0},
		{1, comm, 0},  // dup: not recounted
		{1, konst, 0}, // same neighbor+index, other kind: counted
		{1, comm, 1},  // same neighbor, other var: counted
		{2, comm, 0},  // other neighbor: counted
		{2, comm, 0},  // dup
		{1, konst, 0}, // dup
	}
	const bits = 3
	// Distinct keys: (1,comm,0), (1,const,0), (1,comm,1), (2,comm,0).
	small := runScript(t, 4, reads, bits, 1)
	if small.TotalBits != 4*bits || small.CommComplexityBits != 4*bits {
		t.Fatalf("counted %d bits (complexity %d), want %d", small.TotalBits, small.CommComplexityBits, 4*bits)
	}
	if small.TotalReads != 2 || small.KEfficiency != 2 { // distinct neighbors: two
		t.Fatalf("counted %d distinct-neighbor reads (k = %d), want 2", small.TotalReads, small.KEfficiency)
	}
	big := runScript(t, 130, reads, bits, 1)
	if big.TotalBits != small.TotalBits || big.TotalReads != small.TotalReads ||
		big.KEfficiency != small.KEfficiency || big.CommComplexityBits != small.CommComplexityBits {
		t.Fatalf("n = 130 disagrees with n = 4:\nn=4   %+v\nn=130 %+v", small, big)
	}
}

// TestReadDedupStampGrowth: reads of a high variable index between reads
// of a low one must not disturb either's dedup.
func TestReadDedupStampGrowth(t *testing.T) {
	t.Parallel()
	reads := []scriptedRead{
		{1, comm, 0},
		{1, comm, 5},
		{1, comm, 0},
		{1, comm, 5},
	}
	if rep := runScript(t, 4, reads, 2, 1); rep.TotalBits != 4 {
		t.Fatalf("TotalBits = %d, want 4 (two distinct reads)", rep.TotalBits)
	}
}

// TestReadDedupAcrossSteps: dedup is per selection; the same key in the
// next step counts again.
func TestReadDedupAcrossSteps(t *testing.T) {
	t.Parallel()
	reads := []scriptedRead{{1, comm, 0}, {1, comm, 0}}
	for _, n := range []int{4, 130} {
		if rep := runScript(t, n, reads, 3, 3); rep.TotalBits != 9 {
			t.Fatalf("n=%d: 3 steps × 1 distinct read = %d bits, want 9", n, rep.TotalBits)
		}
	}
}

// fullReadStep returns one full-read step on a high-degree process as the
// recorder sees it: one Selected carrying an arc per neighbor, between
// StepBegin and StepEnd.
func fullReadStep() func(step int) {
	const n = 64
	rec := NewRecorder(n)
	arcs := make([]int, 0, n-1)
	for a := 1; a < n; a++ {
		arcs = append(arcs, a)
	}
	return func(step int) {
		rec.StepBegin(step, 1)
		rec.Selected(step, 0, arcs, 6*(n-1), 0, 1)
		rec.StepEnd(step, 1, false)
	}
}

// BenchmarkRecorderReadFullStep measures what a full-read step costs the
// recorder.
func BenchmarkRecorderReadFullStep(b *testing.B) {
	step := fullReadStep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// TestRecorderReadFullStepZeroAlloc: recording a full-read step allocates
// nothing once the recorder is built. Not parallel: it counts allocations.
func TestRecorderReadFullStepZeroAlloc(t *testing.T) {
	step, i := fullReadStep(), 0
	if avg := testing.AllocsPerRun(200, func() { step(i); i++ }); avg != 0 {
		t.Fatalf("a recorded full-read step allocates %.1f times, want 0", avg)
	}
}

// TestSelectedTimesEqualsRepeatedCalls: one Selected call with times = k
// leaves the recorder where k calls with times = 1 do — the contract the
// simulator's counted selections rest on — for moves and
// disabled selections, with and without reads, before and after a
// MarkSuffix. The arcs of distinct processes are distinct, as a graph's
// are.
func TestSelectedTimesEqualsRepeatedCalls(t *testing.T) {
	t.Parallel()
	type call struct {
		p     int
		arcs  []int
		bits  int
		fired int
		times int
	}
	cases := []struct {
		name  string
		calls []call
	}{
		{"one move", []call{{0, []int{1}, 3, 0, 5}}},
		{"disabled selection", []call{{2, []int{1, 3}, 6, -1, 4}}},
		{"no reads", []call{{1, nil, 0, 0, 7}, {1, nil, 0, -1, 2}}},
		{"times one", []call{{3, []int{2}, 2, 1, 1}}},
		{"maxima and sets across calls", []call{
			{0, []int{1}, 3, 0, 2},
			{0, []int{1, 4}, 9, 1, 3},
			{0, []int{4}, 1, -1, 6},
			{4, []int{0, 3}, 5, 0, 1000},
		}},
	}
	const n = 5
	for _, tc := range cases {
		for _, mark := range []int{-1, 0, 1} { // MarkSuffix before call number mark
			batched, single := NewRecorder(n), NewRecorder(n)
			for i, c := range tc.calls {
				if i == mark {
					batched.MarkSuffix()
					single.MarkSuffix()
				}
				batched.Selected(i, c.p, c.arcs, c.bits, c.fired, c.times)
				for k := 0; k < c.times; k++ {
					single.Selected(i, c.p, c.arcs, c.bits, c.fired, 1)
				}
			}
			if got, want := batched.Report(), single.Report(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (mark %d): times = k reports\n%+v\nk calls report\n%+v", tc.name, mark, got, want)
			}
		}
	}
}
