package trace

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sched"
)

// twoReadSpec reads both neighbors of a degree-2 process each step.
func twoReadSpec() *model.Spec {
	return &model.Spec{
		Name: "TWOREAD",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(8)}},
		Actions: []model.Action{{
			Name: "sum",
			Guard: func(c *model.Ctx) bool {
				total := 0
				for port := 1; port <= c.Deg(); port++ {
					total += c.NeighborComm(port, 0)
				}
				return c.Comm(0) != total%8
			},
			Apply: func(c *model.Ctx) {
				total := 0
				for port := 1; port <= c.Deg(); port++ {
					total += c.NeighborComm(port, 0)
				}
				c.SetComm(0, total%8)
			},
		}},
	}
}

// oneReadSpec reads a single fixed neighbor.
func oneReadSpec() *model.Spec {
	return &model.Spec{
		Name: "ONEREAD",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(8)}},
		Actions: []model.Action{{
			Name:  "copy",
			Guard: func(c *model.Ctx) bool { return c.Comm(0) != c.NeighborComm(1, 0) },
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
}

func TestKEfficiencyMeasured(t *testing.T) {
	g := graph.Cycle(5)
	sysTwo, err := model.NewSystem(g, twoReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g.N())
	cfg := model.NewZeroConfig(sysTwo)
	cfg.SetComm(0, 0, 3)
	sim, err := model.NewSimulator(sysTwo, cfg, sched.NewCentralRoundRobin(), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(20)
	rep := rec.Report()
	if rep.KEfficiency != 2 {
		t.Fatalf("two-read protocol k-efficiency = %d, want 2", rep.KEfficiency)
	}

	sysOne, err := model.NewSystem(g, oneReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := NewRecorder(g.N())
	cfg1 := model.NewZeroConfig(sysOne)
	cfg1.SetComm(0, 0, 3)
	sim1, err := model.NewSimulator(sysOne, cfg1, sched.NewCentralRoundRobin(), 1, rec1)
	if err != nil {
		t.Fatal(err)
	}
	sim1.RunSteps(20)
	if rep := rec1.Report(); rep.KEfficiency != 1 {
		t.Fatalf("one-read protocol k-efficiency = %d, want 1", rep.KEfficiency)
	}
}

func TestBitsAccounting(t *testing.T) {
	// Domain 8 = 3 bits per variable read; degree-2 processes reading
	// both neighbors read 6 bits per step.
	g := graph.Cycle(4)
	sys, err := model.NewSystem(g, twoReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g.N())
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, 1)
	sim, err := model.NewSimulator(sys, cfg, sched.NewCentralRoundRobin(), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(8)
	rep := rec.Report()
	if rep.CommComplexityBits != 6 {
		t.Fatalf("comm complexity = %d bits, want 6", rep.CommComplexityBits)
	}
	if rep.TotalBits <= 0 || rep.Steps <= 0 || rep.Selections <= 0 {
		t.Fatal("bit totals not accumulated")
	}
}

func TestReadDedupWithinStep(t *testing.T) {
	// Reading the same neighbor variable several times in one step counts
	// once for bits and once for the read set.
	spec := &model.Spec{
		Name: "REREAD",
		Comm: []model.VarSpec{{Name: "X", Domain: model.FixedDomain(8)}},
		Actions: []model.Action{{
			Name: "triple-read",
			Guard: func(c *model.Ctx) bool {
				a := c.NeighborComm(1, 0)
				b := c.NeighborComm(1, 0)
				d := c.NeighborComm(1, 0)
				return a+b+d >= 0 && c.Comm(0) != a
			},
			Apply: func(c *model.Ctx) { c.SetComm(0, c.NeighborComm(1, 0)) },
		}},
	}
	g := graph.Path(2)
	sys, err := model.NewSystem(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g.N())
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(1, 0, 5)
	sim, err := model.NewSimulator(sys, cfg, sched.NewCentralRoundRobin(), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(1) // selects process 0 once
	rep := rec.Report()
	if rep.KEfficiency != 1 {
		t.Fatalf("k-efficiency = %d, want 1 (dedup)", rep.KEfficiency)
	}
	if rep.CommComplexityBits != 3 {
		t.Fatalf("comm complexity = %d bits, want 3 (dedup)", rep.CommComplexityBits)
	}
}

func TestSuffixTracking(t *testing.T) {
	g := graph.Cycle(4)
	sys, err := model.NewSystem(g, oneReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g.N())
	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(2, 0, 7)
	sim, err := model.NewSimulator(sys, cfg, sched.NewCentralRoundRobin(), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(30)
	before := rec.Report()
	if before.SuffixSteps != 30 {
		t.Fatalf("suffix steps = %d, want 30", before.SuffixSteps)
	}
	rec.MarkSuffix()
	afterMark := rec.Report()
	if afterMark.SuffixSteps != 0 {
		t.Fatal("MarkSuffix did not reset suffix steps")
	}
	for p := 0; p < g.N(); p++ {
		if s := int(rec.size[p]); s != 0 {
			t.Fatalf("suffix read set of %d not cleared: %d", p, s)
		}
	}
	if want := []int{g.N()}; !reflect.DeepEqual(afterMark.SuffixReadSetHist, want) {
		t.Fatalf("histogram after MarkSuffix = %v, want %v", afterMark.SuffixReadSetHist, want)
	}
	sim.RunSteps(10)
	final := rec.Report()
	if final.SuffixSteps != 10 {
		t.Fatalf("suffix steps = %d, want 10", final.SuffixSteps)
	}
	// Every process was selected in the suffix and read its neighbor.
	for p := 0; p < g.N(); p++ {
		if s := int(rec.size[p]); s != 1 {
			t.Fatalf("suffix read set of %d has %d members, want 1", p, s)
		}
	}
	if want := []int{0, g.N()}; !reflect.DeepEqual(final.SuffixReadSetHist, want) {
		t.Fatalf("histogram after the suffix = %v, want %v", final.SuffixReadSetHist, want)
	}
}

func TestStableProcesses(t *testing.T) {
	// Suffix read sets of sizes 1, 1, 2 and 0.
	rep := Report{N: 4, SuffixReadSetHist: []int{1, 2, 1}}
	for k, want := range map[int]int{-1: 0, 0: 1, 1: 3, 2: 4, 7: 4} {
		if got := rep.StableProcesses(k); got != want {
			t.Fatalf("StableProcesses(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestMovesAndDisabledCounts(t *testing.T) {
	g := graph.Path(2)
	sys, err := model.NewSystem(g, oneReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g.N())
	cfg := model.NewZeroConfig(sys) // all equal: everyone disabled
	sim, err := model.NewSimulator(sys, cfg, sched.NewSynchronous(), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(5)
	rep := rec.Report()
	if rep.Moves != 0 {
		t.Fatalf("moves = %d, want 0", rep.Moves)
	}
	if rep.DisabledSelections != 10 {
		t.Fatalf("disabled selections = %d, want 10", rep.DisabledSelections)
	}
	if rep.Selections != 10 {
		t.Fatalf("selections = %d, want 10", rep.Selections)
	}
	if rep.CommWrites != 0 {
		t.Fatal("comm writes recorded for disabled system")
	}
}

func TestSpaceComplexityBits(t *testing.T) {
	g := graph.Cycle(4)
	sys, err := model.NewSystem(g, oneReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Comm var domain 8 = 3 bits; no internal vars; + measured comm 3.
	if got := SpaceComplexityBits(sys, 0, 3); got != 6 {
		t.Fatalf("space complexity = %d, want 6", got)
	}
}

func TestRoundsCounted(t *testing.T) {
	g := graph.Path(3)
	sys, err := model.NewSystem(g, oneReadSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g.N())
	sim, err := model.NewSimulator(sys, model.NewZeroConfig(sys), sched.NewCentralRoundRobin(), 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(9) // 3 full round-robin passes
	rep := rec.Report()
	if rep.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", rep.Rounds)
	}
}
