package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// traceScale is the traced run of scale-sync: ssscale's own call
// sequence (build the torus, build the system, RunRandom under the
// synchronous daemon) with a span per call, then the unit costs of the
// step engine and of each daemon's Select on the torus-400/coloring
// reference cell of plain.campaign.
func traceScale(e *env, _ *workload, tr *tracer, budget time.Duration) (traceResult, error) {
	res := traceResult{metrics: make(map[string]float64)}
	width := int(math.Sqrt(scaleN))
	height := (scaleN + width - 1) / width
	var torus, gnp, system, run, heap []float64
	var steps, rounds, activations float64
	start := time.Now()
	for i := 0; time.Since(start) < budget/2; i++ {
		seed := deriveSeed(e.seed, uint64(i))
		base := heapAlloc()
		root := tr.start(-1, i, "scale.trial")
		id := tr.start(root, i, "graph.torus")
		g := graph.Torus(width, height)
		tr.end(id)
		id = tr.start(root, i, "engine.system")
		sys, legit, err := engine.System(g, engine.FamColoring)
		tr.end(id)
		if err != nil {
			return res, err
		}
		rn, out := core.NewRunner(), &core.RunResult{}
		id = tr.start(root, i, "core.run_random")
		err = rn.RunRandom(sys, core.RunOptions{
			Scheduler: sched.NewSynchronous(), Seed: rng.Derive(seed, 1), MaxSteps: 1_000_000, Legitimate: legit,
		}, out)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return res, err
		}
		heap = append(heap, float64(heapAlloc()-base)/float64(g.N()))
		runtime.KeepAlive(rn)
		res.attempted++
		if !out.Silent || !out.LegitimateAtSilence {
			res.failed++
		}
		steps += float64(out.StepsToSilence)
		rounds += float64(out.RoundsToSilence)
		activations += float64(g.N()) * float64(out.StepsToSilence)

		id = tr.start(-1, i, "graph.gnp")
		sink = graph.RandomConnectedGNP(scaleN, 6/float64(scaleN), rng.New(rng.Derive(seed, 22)))
		tr.end(id)
	}
	for _, s := range tr.spans {
		d := ms(s.End - s.Start)
		switch s.Name {
		case "graph.torus":
			torus = append(torus, d)
		case "graph.gnp":
			gnp = append(gnp, d)
		case "engine.system":
			system = append(system, d)
		case "core.run_random":
			run = append(run, d)
		}
	}
	trials := float64(res.attempted)
	res.metrics["graph.torus.ms"] = median(torus)
	res.metrics["graph.gnp.ms"] = median(gnp)
	res.metrics["engine.system.ms"] = median(system)
	res.metrics["core.run_random.ms"] = median(run)
	res.metrics["model.steps.count"] = steps / trials
	res.metrics["model.rounds.count"] = rounds / trials
	res.metrics["model.heap_bytes_per_process"] = median(heap)
	total := 0.0
	for _, d := range run {
		total += d
	}
	res.metrics["model.activations_per_s"] = activations / (total / 1000)

	sys, _, err := engine.System(graph.Torus(20, 20), engine.FamColoring)
	if err != nil {
		return res, err
	}
	stepEngine(e.seed, sys, res.metrics)
	for _, name := range schedulerNames {
		cost, err := selectCost(e.seed, sys, name)
		if err != nil {
			return res, err
		}
		res.metrics["sched.select_"+name+".ns"] = cost
	}
	return res, nil
}

// stepEngine measures one activation (one selected process in one step)
// on sys under random-subset, to silence from random configurations:
// with no observer, and with the trace.Recorder every trial of a
// campaign attaches. Both runs of a seed follow the same trajectory, so
// the recorder's Selections count serves both.
func stepEngine(seed uint64, sys *model.System, metrics map[string]float64) {
	const trials = 200
	var sim model.Simulator
	rec := trace.NewRecorder(sys.N())
	cfg := model.NewZeroConfig(sys)
	var bare, recorded time.Duration
	var selections int64
	for t := 0; t < trials; t++ {
		s := rng.Derive(seed, uint64(t))
		for _, withRec := range []bool{false, true} {
			model.RandomizeConfig(sys, cfg, rng.New(s))
			var o model.Observer
			if withRec {
				rec.Reset(sys.N())
				o = rec
			}
			start := time.Now()
			if err := sim.Reset(sys, cfg, sched.NewRandomSubset(s), s, o); err != nil {
				panic(err) // a system built by engine.System always resets
			}
			if _, err := sim.RunUntilSilent(1_000_000, 1); err != nil {
				panic(err)
			}
			if withRec {
				recorded += time.Since(start)
				selections += rec.Report().Selections
			} else {
				bare += time.Since(start)
			}
		}
	}
	metrics["model.activation_nilobs.ns"] = float64(bare) / float64(selections)
	metrics["model.activation_recorded.ns"] = float64(recorded) / float64(selections)
	metrics["trace.recorder.share"] = float64(recorded-bare) / float64(recorded)
}

// selectCost is the cost of one Select call of the named daemon on sys
// at a random configuration, through SelectTracked with the simulator's
// own tracker where the daemon has one — the call the simulator makes.
// The scheduler is called directly, never through a wrapper.
func selectCost(seed uint64, sys *model.System, name string) (float64, error) {
	const calls = 20000
	sc, err := sched.ByName(name, seed)
	if err != nil {
		return 0, err
	}
	sim, err := model.NewSimulator(sys, model.NewRandomConfig(sys, rng.New(seed)), sc, seed, nil)
	if err != nil {
		return 0, err
	}
	tracked, _ := sc.(model.TrackedScheduler)
	picked := 0
	start := time.Now()
	for step := 0; step < calls; step++ {
		if tracked != nil {
			picked += len(tracked.SelectTracked(step, sys, sim.Config(), sim.Tracker()))
		} else {
			picked += len(sc.Select(step, sys, sim.Config()))
		}
	}
	cost := float64(time.Since(start)) / calls
	if picked == 0 {
		return 0, fmt.Errorf("daemon %s selected nothing in %d calls", name, calls)
	}
	return cost, nil
}

// traceRegistry is the traced run of registry: each experiment's
// Entry.Run timed on its own (which one moved), then the pooled
// small-n trial loop the registry spends its time in, plain and faulted.
func traceRegistry(e *env, _ *workload, tr *tracer, budget time.Duration) (traceResult, error) {
	res := traceResult{metrics: make(map[string]float64)}
	perID := make(map[string][]float64)
	start := time.Now()
	for round := 0; round < 5; round++ {
		roundStart := time.Now()
		seed := 1 + (e.seed+uint64(round))%registrySeeds // the seeds the workload's ops take
		for _, id := range experimentIDs {
			run, err := experiment.ByID(id)
			if err != nil {
				return res, err
			}
			span := tr.start(-1, round, "experiment."+id)
			out, err := run(experiment.Config{Seed: seed, Trials: registryTrials, Parallelism: e.nproc})
			tr.end(span)
			if err != nil {
				return res, err
			}
			res.attempted++
			if !out.Pass && id != "E19" { // E19's verdict is seed-sensitive; see registryIDs
				res.failed++
			}
		}
		if time.Since(start)+time.Since(roundStart) > budget*3/4 {
			break
		}
	}
	for _, s := range tr.spans {
		perID[s.Name] = append(perID[s.Name], ms(s.End-s.Start))
	}
	for name, vals := range perID {
		res.metrics[name+".ms"] = median(vals)
	}

	// Pooled Runner.RunRandom on cycle-13/coloring: the registry's regime,
	// where Reset, RandomizeConfig and ReportInto outweigh stepping.
	sys, legit, err := engine.System(graph.Cycle(13), engine.FamColoring)
	if err != nil {
		return res, err
	}
	const small = 20000
	rn, out := core.NewRunner(), &core.RunResult{}
	mk := func(s uint64) model.Scheduler { return sched.NewRandomSubset(s) }
	trial := func(t int) error {
		s := rng.Derive(e.seed, uint64(t))
		return rn.RunRandom(sys, core.RunOptions{
			Scheduler: rn.Scheduler("random-subset", s, mk), Seed: s, MaxSteps: 1_000_000, Legitimate: legit,
		}, out)
	}
	if err := trial(0); err != nil { // binds the runner's buffers before counting
		return res, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for t := 1; t <= small; t++ {
		if err := trial(t); err != nil {
			return res, err
		}
	}
	res.metrics["core.trial_small.us"] = float64(time.Since(t0)) / float64(time.Microsecond) / small
	runtime.ReadMemStats(&m1)
	res.metrics["core.trial_small.allocs"] = float64(m1.Mallocs-m0.Mallocs) / small

	// One faulted cell of fault.campaign: grid-400/coloring, uniform k=8
	// striking at each of three silences.
	sys, legit, err = engine.System(graph.Grid(20, 20), engine.FamColoring)
	if err != nil {
		return res, err
	}
	const faulted = 100
	adv := fault.NewUniform(8)
	var fres core.FaultResult
	t0 = time.Now()
	for t := 0; t < faulted; t++ {
		s := rng.Derive(e.seed, uint64(t))
		err := rn.RunRandomFaulted(sys, core.RunOptions{
			Scheduler: rn.Scheduler("random-subset", s, mk), Seed: s, MaxSteps: 1_000_000, Legitimate: legit,
		}, fault.Plan{Adversary: adv, Schedule: fault.OnSilence(3)}, &fres)
		if err != nil {
			return res, err
		}
		res.attempted++
		if !fres.AllRecovered() {
			res.failed++
		}
	}
	res.metrics["core.faulted_trial.us"] = float64(time.Since(t0)) / float64(time.Microsecond) / faulted
	return res, nil
}
