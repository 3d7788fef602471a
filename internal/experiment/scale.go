package experiment

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// E22MillionScale is the large-graph capability experiment: COLORING is
// driven to silence under the synchronous daemon on streaming-generated
// tori and sparse random graphs of growing size — up to 10⁶ processes in
// the full suite — and each cell reports rounds-to-silence, wall-clock
// and the live-heap footprint after the run. The cell passes when the
// run reaches a legitimate silent configuration within budget; the
// resource columns are the measured evidence for the engine's O(n + m)
// memory claim (no per-step O(n) scans, no O(n²) tables).
//
// Like E12, E22 is wall-clock-dependent (and heap-measurement-dependent)
// by design: it is excluded from the byte-identical golden and
// equivalence sweeps, runs one trial per cell, and keeps the trial off
// the worker pool so the measurement is not distorted by sibling cells'
// allocations.
func E22MillionScale(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	type cell struct {
		label string
		build func(r *rng.Rand) *graph.Graph
	}
	torus := func(w, h int) cell {
		return cell{
			label: fmt.Sprintf("torus-%dx%d", w, h),
			build: func(*rng.Rand) *graph.Graph { return graph.Torus(w, h) },
		}
	}
	gnp := func(n int) cell {
		return cell{
			label: fmt.Sprintf("gnp-%d", n),
			build: func(r *rng.Rand) *graph.Graph {
				return graph.RandomConnectedGNP(n, 6/float64(n), r)
			},
		}
	}
	cells := []cell{torus(100, 100), torus(400, 250), torus(1000, 1000),
		gnp(10_000), gnp(100_000), gnp(1_000_000)}
	if cfg.Quick {
		cells = []cell{torus(50, 50), torus(100, 100), gnp(2_500), gnp(10_000)}
	}

	table := stats.NewTable("E22: million-process scaling (synchronous COLORING)",
		"graph", "n", "Δ", "silent", "legit", "rounds", "wall ms", "heap MB", "B/proc")
	pass := true
	for ci, c := range cells {
		// Cells run sequentially with one graph alive at a time; the
		// runner and system stay referenced until after the heap
		// measurement.
		g := c.build(rng.New(rng.Derive(cfg.Seed, uint64(ci))))
		sys, err := engine.Build(g, engine.FamColoring, nil)
		if err != nil {
			return nil, err
		}
		rn := core.NewRunner()
		res := &core.RunResult{}
		start := time.Now()
		err = rn.RunRandom(sys, core.RunOptions{
			Scheduler: sched.NewSynchronous(),
			Seed:      rng.Derive(cfg.Seed, uint64(ci)+1_000),
			MaxSteps:  cfg.MaxSteps,
		}, res)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		ok := res.Silent && res.LegitimateAtSilence
		pass = pass && ok
		table.AddRow(c.label, g.N(), g.MaxDegree(), res.Silent,
			res.LegitimateAtSilence, res.RoundsToSilence, wall.Milliseconds(),
			fmt.Sprintf("%.1f", float64(m.HeapAlloc)/(1<<20)),
			fmt.Sprintf("%.0f", float64(m.HeapAlloc)/float64(g.N())))
		runtime.KeepAlive(rn)
		runtime.KeepAlive(res)
	}
	return &Result{
		ID:       "E22",
		Title:    "scaling to a million processes",
		PaperRef: "reproduction extension (ROADMAP: million-process scale)",
		Claim:    "the engine reaches a legitimate silent configuration at every size, with per-process memory that stays flat as n grows",
		Table:    table,
		Pass:     pass,
		Notes:    "one trial per cell, off the worker pool; wall-clock and heap columns vary run to run (excluded from golden comparisons, like E12)",
	}, nil
}
