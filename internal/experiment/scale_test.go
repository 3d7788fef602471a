package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// largeNTable runs pool-driven COLORING trials on 10⁴-process graphs —
// sizes that put the recorder in its sparse representation and the
// schedulers on their large-n paths — and renders the aggregate table.
func largeNTable(t *testing.T, par int) string {
	t.Helper()
	r := rng.New(rng.Derive(2009, 9))
	torus := graph.Torus(100, 100)
	gnp := graph.RandomConnectedGNP(10_000, 6/10_000.0, r)
	// n = 10⁴ is above the campaign DSL's graph-size ceiling, so the
	// cells come from engine.NewCell directly, keyed as a campaign would.
	ecfg := Config{Seed: 2009, Trials: 2, MaxSteps: 5_000_000, Parallelism: par}.engineConfig()
	specs := []struct {
		g      *graph.Graph
		daemon string
		suffix int
	}{
		{torus, engine.DefaultSchedName, 1},
		{gnp, engine.DefaultSchedName, 1},
		{torus, "laziest-fair", 0},
	}
	cells := make([]engine.Cell, len(specs))
	for i, sp := range specs {
		sys, err := engine.Build(sp.g, engine.FamColoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells[i], err = engine.NewCell(&ecfg, engine.Scenario{
			Key:   fmt.Sprintf("%s|%s|%s|%d", sp.g.Name(), engine.FamColoring, sp.daemon, sp.suffix),
			Index: i, System: sys, Daemon: sp.daemon, SuffixRounds: sp.suffix,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	accs := make([]core.Convergence, len(specs))
	for i := range accs {
		accs[i] = core.NewConvergence()
	}
	err := engine.RunCells(ecfg, cells, func(cell, _ int, res *core.FaultResult) error {
		accs[cell].Add(&res.RunResult)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	table := stats.NewTable("large-n smoke",
		"graph", "sched", "converged", "max rounds", "max steps", "max k-eff")
	for i, sp := range specs {
		a := accs[i]
		table.AddRow(sp.g.Name(), sp.daemon,
			fmt.Sprintf("%d/%d", a.Converged, a.Runs), a.MaxRounds, a.MaxSteps, a.MaxKEfficiency)
	}
	return table.String()
}

// TestLargeNTablesAcrossParallelism is the large-n determinism smoke:
// at n = 10⁴ the sparse recorder, the incremental enabled/silence
// queues and the laziest-fair ring all replace what used to be dense
// per-step structures, and the rendered trial tables must remain
// byte-identical between Parallelism 1 and 4 — the same contract the
// quick-suite registry sweeps pin at small n. Skipped under -short (the
// cells run millions of steps).
func TestLargeNTablesAcrossParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("large-n smoke is a long test")
	}
	seq := largeNTable(t, 1)
	parl := largeNTable(t, 4)
	if seq != parl {
		t.Fatalf("large-n tables differ between Parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", seq, parl)
	}
	if agg := largeNTable(t, 4); agg != parl {
		t.Fatalf("large-n tables differ between repeated runs at Parallelism 4:\n--- a ---\n%s\n--- b ---\n%s", parl, agg)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestBytesPerProcessBudget gates what E22 and ssscale report: the live
// heap one synchronous COLORING trial to silence leaves behind — graph,
// system, runner (simulator, recorder, configuration) and result — per
// process. It reads 177 B with the flat 32-bit graph, the one-list
// recorder, the memo a run ending at silence never allocates, a Config
// that is two flat arrays and a step arena that stages communication
// rows only (8 B and a 4 B writer index); the budget is that plus 25 %.
// A row view over the configuration coming back ([][]int, one 24 B slice
// header per process in each of the live and the final configuration)
// reads 225 B and fails; both views read 273 B. Not parallel, so no other
// test allocates between the two readings.
func TestBytesPerProcessBudget(t *testing.T) {
	const budget = 221
	base := liveHeap()
	g := graph.Torus(150, 150)
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		t.Fatal(err)
	}
	rn, res := core.NewRunner(), &core.RunResult{}
	err = rn.RunRandom(sys, core.RunOptions{
		Scheduler: sched.NewSynchronous(),
		Seed:      rng.Derive(2009, 22),
		MaxSteps:  1_000_000,
	}, res)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatalf("trial did not reach a legitimate silent configuration (%d steps)", res.StepsToSilence)
	}
	per := float64(liveHeap()-base) / float64(g.N())
	runtime.KeepAlive(g)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(rn)
	runtime.KeepAlive(res)
	t.Logf("%s: %.0f B/process live after %d rounds to silence", g.Name(), per, res.RoundsToSilence)
	if per > budget {
		t.Fatalf("%s: %.0f B/process live after one trial to silence, budget %d B", g.Name(), per, budget)
	}
}
