package model_test

// Step-engine micro-benchmarks: the per-step constant factor every
// experiment in the registry pays millions of times. `make bench` runs
// each once as a smoke; the zero-allocs contract they exhibit is pinned
// by the tests in perf_test.go.

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// silentSystem returns a recorded simulator of protocol family fam on
// the suite's 16-node 4-regular graph, run to silence under daemon: the
// state E6, E10 and E13 measure their stabilized-phase suffix from.
func silentSystem(tb testing.TB, fam, daemon string) (*model.Simulator, *trace.Recorder) {
	tb.Helper()
	g, err := graph.RandomRegular(16, 4, rng.New(2009))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := engine.Build(g, fam, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := sched.ByName(daemon, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rec := trace.NewRecorder(sys.N())
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sc, 1, rec)
	if err != nil {
		tb.Fatal(err)
	}
	if silent, err := sim.RunUntilSilent(1_000_000, 1); err != nil || !silent {
		tb.Fatalf("RunUntilSilent = (%v, %v), want silence", silent, err)
	}
	return sim, rec
}

// BenchmarkSilentSuffix measures the stabilized phase as the registry
// runs it: RunRounds(6n) on a silent configuration with a Recorder
// attached. random-subset is MATCHING under the distributed daemon, E6's
// and E10's suffix, where every selection is counted on its process's
// closed cycle and handed to the recorder once per transition of the
// cycle; laziest-fair is the same under a tracked daemon, which feeds no
// cycle detector, so every selection is evaluated; matching-xform is the
// cached-view full-read MATCHING of E13, whose cycles run through the
// cache pointer after a tail of refreshes.
func BenchmarkSilentSuffix(b *testing.B) {
	for _, c := range []struct{ name, fam, daemon string }{
		{"random-subset", engine.FamMatching, "random-subset"},
		{"laziest-fair", engine.FamMatching, "laziest-fair"},
		{"matching-xform", engine.FamMatchingXform, "random-subset"},
	} {
		b.Run(c.name, func(b *testing.B) {
			sim, rec := silentSystem(b, c.fam, c.daemon)
			rounds := 6 * sim.Sys().N()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.MarkSuffix()
				sim.RunRounds(rounds)
			}
		})
	}
}

// BenchmarkConvergence measures a protocol from a random configuration
// to silence, the convergence phase in which processes whose
// neighborhood settled keep turning their cur pointer. The first two
// rows run COLORING: sync-torus is the synchronous daemon on
// torus-100x100 with a Recorder attached (one E22 cell in small),
// random-subset the distributed daemon on torus-20x20 with no observer.
// The mis-* and matching-* rows run MIS and MATCHING on torus-20x20 with
// no observer, under random-subset and under laziest-fair, whose tracker
// re-evaluates every process a step dirties. The bfstree-* rows run the
// BFS tree, rooted at process 0, on the benchmark campaign's two heaviest
// BFS cells: cycle-256 under central-random and grid-20x20 under
// random-subset, with no observer. With the COLORING rows they give each
// one-pass decision (Spec.First) a row of its own. Every iteration starts
// from the same configuration on a reused simulator.
func BenchmarkConvergence(b *testing.B) {
	for _, c := range []struct {
		name   string
		family string
		g      *graph.Graph
		daemon string
		record bool
	}{
		{"sync-torus", engine.FamColoring, graph.Torus(100, 100), "synchronous", true},
		{"random-subset", engine.FamColoring, graph.Torus(20, 20), "random-subset", false},
		{"mis-random-subset", engine.FamMIS, graph.Torus(20, 20), "random-subset", false},
		{"mis-laziest-fair", engine.FamMIS, graph.Torus(20, 20), "laziest-fair", false},
		{"matching-random-subset", engine.FamMatching, graph.Torus(20, 20), "random-subset", false},
		{"matching-laziest-fair", engine.FamMatching, graph.Torus(20, 20), "laziest-fair", false},
		{"bfstree-central-random", engine.FamBFSTree, graph.Cycle(256), "central-random", false},
		{"bfstree-random-subset", engine.FamBFSTree, graph.Grid(20, 20), "random-subset", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			sys, err := engine.Build(c.g, c.family, nil)
			if err != nil {
				b.Fatal(err)
			}
			initial := model.NewRandomConfig(sys, rng.New(1))
			cfg := initial.Clone()
			rec := trace.NewRecorder(sys.N())
			var obs model.Observer
			if c.record {
				obs = rec
			}
			var sim model.Simulator
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.CopyFrom(initial)
				rec.Reset(sys.N())
				sc, err := sched.ByName(c.daemon, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Reset(sys, cfg, sc, 1, obs); err != nil {
					b.Fatal(err)
				}
				if silent, err := sim.RunUntilSilent(1_000_000, 1); err != nil || !silent {
					b.Fatalf("RunUntilSilent = (%v, %v), want silence", silent, err)
				}
			}
		})
	}
}

// BenchmarkExecuteStep measures one scheduler step through the
// simulator's reusable arena (the hot path) for the synchronous and
// central round-robin daemons. The writers rows are synchronous steps of
// writersSpec in which none, a fifth and all of the sixteen processes
// write communication state: what staging a row and committing it costs
// over an internal write made in place. The replay row is a recorded BFS
// tree on a 256-cycle under the central-random daemon, stepped to its
// fixed point without a silence check: every step selects a disabled
// process, counts its replay and settles it to the recorder.
func BenchmarkExecuteStep(b *testing.B) {
	newSim := func(b *testing.B, sys *model.System, sc model.Scheduler) *model.Simulator {
		b.Helper()
		sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sc, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunSteps(256) // warm the arena and converge past the noisy phase
		return sim
	}
	steps := func(name string, sys *model.System, sc func() model.Scheduler) {
		b.Run(name, func(b *testing.B) {
			sim := newSim(b, sys, sc())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
	synchronous := func() model.Scheduler { return sched.NewSynchronous() }
	coloring := coloringSystem(b, graph.Torus(4, 4))
	steps("arena-synchronous", coloring, synchronous)
	steps("arena-central-rr", coloring, func() model.Scheduler { return sched.NewCentralRoundRobin() })
	for _, w := range []int{0, 1, 5} {
		steps(fmt.Sprintf("arena-synchronous-writers-%d%%", 20*w), writersSystem(b, w), synchronous)
	}
	b.Run("replay-bfstree-cycle-256-central-random", func(b *testing.B) {
		sys, err := engine.Build(graph.Cycle(256), engine.FamBFSTree, nil)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sched.NewCentralRandom(1), 1, trace.NewRecorder(sys.N()))
		if err != nil {
			b.Fatal(err)
		}
		for len(sim.Tracker().AppendEnabled(nil)) > 0 {
			sim.RunSteps(sys.N())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Step()
		}
	})
}

// BenchmarkEnabledTracker measures enabledness maintenance: the
// steady-state incremental path (one process invalidated per step, as
// after a typical move) against a full revalidation, which is what an
// untracked Select pays every step.
func BenchmarkEnabledTracker(b *testing.B) {
	sys := coloringSystem(b, graph.Torus(4, 4))
	cfg := model.NewRandomConfig(sys, rng.New(1))
	b.Run("incremental", func(b *testing.B) {
		tr := model.NewEnabledTracker(sys, cfg)
		buf := make([]int, 0, sys.N())
		tr.AppendEnabled(buf) // warm every verdict
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Invalidate(i % sys.N())
			buf = tr.AppendEnabled(buf[:0])
		}
	})
	b.Run("full-revalidate", func(b *testing.B) {
		tr := model.NewEnabledTracker(sys, cfg)
		buf := make([]int, 0, sys.N())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Reset(sys, cfg)
			buf = tr.AppendEnabled(buf[:0])
		}
	})
}

// BenchmarkConfigClone measures the flat-layout Clone/Equal fast paths.
func BenchmarkConfigClone(b *testing.B) {
	sys := coloringSystem(b, graph.Torus(8, 8))
	cfg := model.NewRandomConfig(sys, rng.New(1))
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = cfg.Clone()
		}
	})
	b.Run("equal", func(b *testing.B) {
		cp := cfg.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !cfg.Equal(cp) {
				b.Fatal("unequal")
			}
		}
	})
}
