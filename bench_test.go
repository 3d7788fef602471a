// Benchmarks regenerating every paper artifact (one benchmark per
// experiment E1-E15; `ssbench -list` prints the artifact index), plus
// convergence micro-benchmarks per protocol and network size, engine
// micro-benchmarks, and before/after benchmarks for the parallel trial
// pool and the incremental silence detector.
//
// Run: go test -bench=. -benchmem
// -short shrinks trials and graph sizes for CI smoke runs.
package selfstab

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// benchSizes returns the convergence benchmark network sizes, shrunk
// under -short.
func benchSizes() []int {
	if testing.Short() {
		return []int{8, 16}
	}
	return []int{8, 16, 32}
}

// benchTrials returns the per-cell trial count for experiment
// benchmarks, shrunk under -short.
func benchTrials() int {
	if testing.Short() {
		return 1
	}
	return 2
}

// benchExperiment runs one experiment per iteration on the quick suite
// and fails the benchmark if the paper claim check fails.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := run(experiment.Config{
			Seed:     uint64(i) + 1,
			Trials:   benchTrials(),
			MaxSteps: 500000,
			Quick:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed:\n%s", id, res.Table.String())
		}
	}
}

func BenchmarkE1ColoringConvergence(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2Bits(b *testing.B)                { benchExperiment(b, "E2") }
func BenchmarkE3MISRounds(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4MISStability(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5MatchingRounds(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6MatchingStability(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7Stitch(b *testing.B)              { benchExperiment(b, "E7") }
func BenchmarkE8StitchDag(b *testing.B)           { benchExperiment(b, "E8") }
func BenchmarkE9DagOrient(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10StabilizedOverhead(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Schedulers(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12Concurrent(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13Transformer(b *testing.B)        { benchExperiment(b, "E13") }
func BenchmarkE14Scaling(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15Faults(b *testing.B)             { benchExperiment(b, "E15") }

// Convergence micro-benchmarks: one full stabilization per iteration.

func benchProtocol(b *testing.B, protocol, topo string, n int) {
	b.Helper()
	net, err := Generate(topo, n, 7)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(net, protocol)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(sys, Options{Seed: uint64(i) + 1, MaxSteps: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Silent {
			b.Fatal("no silence")
		}
		b.ReportMetric(float64(res.StepsToSilence), "steps/conv")
		b.ReportMetric(float64(res.RoundsToSilence), "rounds/conv")
	}
}

func BenchmarkColoringConvergence(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("gnp-%d", n), func(b *testing.B) {
			benchProtocol(b, "coloring", "gnp", n)
		})
	}
}

func BenchmarkMISConvergence(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("gnp-%d", n), func(b *testing.B) {
			benchProtocol(b, "mis", "gnp", n)
		})
	}
}

func BenchmarkMatchingConvergence(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("gnp-%d", n), func(b *testing.B) {
			benchProtocol(b, "matching", "gnp", n)
		})
	}
}

// Before/after benchmarks for the two engine changes of the parallel
// sharded pool PR.

// BenchmarkTrialPool measures the experiment registry's trial engine at
// Parallelism 1 (the old sequential behaviour) versus GOMAXPROCS. The
// output tables are byte-identical; only wall-clock differs.
func BenchmarkTrialPool(b *testing.B) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.E1ColoringConvergence(experiment.Config{
					Seed:        1,
					Trials:      benchTrials() * 2,
					MaxSteps:    500000,
					Quick:       testing.Short(),
					Parallelism: par,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Pass {
					b.Fatal("E1 failed")
				}
			}
		})
	}
}

// BenchmarkSilenceDetection compares the incremental dirty-set silence
// check that RunUntilSilent uses against re-deciding silence from scratch
// every step: full-rescan is a CommSilent call per step, the orbit walker
// swept over every process.
func BenchmarkSilenceDetection(b *testing.B) {
	n := 32
	if testing.Short() {
		n = 16
	}
	net, err := Generate("gnp", n, 7)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(net, "mis")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := model.NewRandomConfig(sys, rng.New(uint64(i)+1))
			sim, err := model.NewSimulator(sys, cfg, sched.NewRandomSubset(uint64(i)+1), uint64(i)+1, nil)
			if err != nil {
				b.Fatal(err)
			}
			silent, err := sim.RunUntilSilent(2_000_000, 1)
			if err != nil {
				b.Fatal(err)
			}
			if !silent {
				b.Fatal("no silence")
			}
		}
	})
	b.Run("full-rescan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := model.NewRandomConfig(sys, rng.New(uint64(i)+1))
			sim, err := model.NewSimulator(sys, cfg, sched.NewRandomSubset(uint64(i)+1), uint64(i)+1, nil)
			if err != nil {
				b.Fatal(err)
			}
			silent := false
			for step := 0; step < 2_000_000; step++ {
				s, err := model.CommSilent(sys, sim.Config())
				if err != nil {
					b.Fatal(err)
				}
				if s {
					silent = true
					break
				}
				sim.Step()
			}
			if !silent {
				b.Fatal("no silence")
			}
		}
	})
}

// BenchmarkRecorderStep measures one central round-robin step of MIS on
// a 16-node torus through Simulator with the bitset-backed trace
// recorder attached; BenchmarkSimulatorStep is the same step with no
// observer, so the difference is the recorder's per-step cost.
func BenchmarkRecorderStep(b *testing.B) {
	benchSimulatorStep(b, true)
}

// Engine micro-benchmarks.

func BenchmarkSimulatorStep(b *testing.B) {
	benchSimulatorStep(b, false)
}

func benchSimulatorStep(b *testing.B, recorded bool) {
	net, err := Generate("torus", 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(net, "mis")
	if err != nil {
		b.Fatal(err)
	}
	var obs model.Observer
	if recorded {
		obs = trace.NewRecorder(sys.N())
	}
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(1)), sched.NewCentralRoundRobin(), 1, obs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkCommSilent measures one CommSilent call: the orbit walker swept
// over every process of MIS on a 16-node torus.
func BenchmarkCommSilent(b *testing.B) {
	net, err := Generate("torus", 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(net, "mis")
	if err != nil {
		b.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.CommSilent(sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyColoring(b *testing.B) {
	g := graph.RandomConnectedGNP(200, 0.05, rng.New(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colors := graph.GreedyLocalColoring(g)
		if !graph.IsProperColoring(g, colors) {
			b.Fatal("improper coloring")
		}
	}
}

func BenchmarkConcurrentMIS(b *testing.B) {
	net, err := Generate("grid", 16, 9)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(net, "mis")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunConcurrent(sys, ConcurrentOptions{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Silent {
			b.Fatal("no silence")
		}
	}
}
