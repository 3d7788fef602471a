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
// at n = 10⁴ the recorder's arc bits, the incremental enabled/silence
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
// process, on both graph families E22 charts. Each budget is its cell's
// reading (86 and 113 B) plus 25 %, rounded up. The torus reads 86 B:
//   - the graph, 28 B: 32-bit offsets and neighbor ids, 16-bit back
//     ports (4 + 16 + 8 at Δ = 4);
//   - one configuration of int32 values, 8 B: the run's live buffer is
//     handed over as the result's Final, not copied;
//   - the recorder, about 4.5 B: one bit per arc of the graph for the
//     read sets and a 32-bit size per process;
//   - the system's constant and bit-width rows (its domains are one row
//     per degree, not per process);
//   - the simulator's and tracker's per-process tables: 32-bit
//     selection stamps, verdicts, silence verdicts and the silence
//     queue's capacity of n (counted here, though a run writes only as
//     much of it as it uses, so most of it is never resident), the stale
//     queue capped at n/8, and the synchronous daemon's live set and the
//     copy a step walks, one bit each;
//   - the cycle detectors, 12 B: an anchor of one int32 (COLORING's
//     internal row is its cur pointer), a packed 32-bit walk and the
//     32-bit count, plus a due list capped at n/32 entries; count and
//     list serve disabled windows too;
//   - no kept disabled reads: COLORING is never disabled, so neither
//     the int per arc nor the two int32 sizes per process are allocated;
//   - a report whose read sets are a histogram.
//
// The read sets as an int32 slab of four-member first rows (24 B per
// process) read 106 B on the torus and 195 B on G(n, 6/n), where rows
// outgrown at Δ ≈ 25 stayed behind in the slab, and fail both budgets.
// Not parallel, so no other test allocates between the two readings.
func TestBytesPerProcessBudget(t *testing.T) {
	cells := []struct {
		graph  func() *graph.Graph
		budget int
	}{
		{func() *graph.Graph { return graph.Torus(150, 150) }, 108},
		{func() *graph.Graph {
			return graph.RandomConnectedGNP(20_000, 6/20_000.0, rng.New(rng.Derive(2009, 22)))
		}, 142},
	}
	for _, c := range cells {
		name, per, rounds := bytesPerProcess(t, c.graph)
		t.Logf("%s: %.0f B/process live after %d rounds to silence", name, per, rounds)
		if per > float64(c.budget) {
			t.Errorf("%s: %.0f B/process live after one trial to silence, budget %d B", name, per, c.budget)
		}
	}
}

// bytesPerProcess builds a graph and runs one synchronous COLORING
// trial on it to a legitimate silent configuration. It returns the
// graph's name, the live heap the graph and the trial leave behind per
// process, and the rounds the trial took.
func bytesPerProcess(t *testing.T, build func() *graph.Graph) (string, float64, int) {
	t.Helper()
	base := liveHeap()
	g := build()
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
		t.Fatalf("%s: trial did not reach a legitimate silent configuration (%d steps)", g.Name(), res.StepsToSilence)
	}
	per := float64(liveHeap()-base) / float64(g.N())
	runtime.KeepAlive(g)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(rn)
	runtime.KeepAlive(res)
	return g.Name(), per, res.RoundsToSilence
}
