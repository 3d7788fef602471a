// Command ssscale runs one large-graph scaling cell — the single-cell
// form of experiment E22 — and gates its resource use: it builds a
// streaming-generated graph of -n processes, drives COLORING to a
// legitimate silent configuration under the synchronous daemon, and
// reports rounds, wall-clock, allocated heap and peak RSS. It exits nonzero
// when the run fails to stabilize, and, with -budget-mb > 0, when the
// process's peak RSS exceeds the budget — the CI scale-smoke job pins
// the 10⁶-node torus cell under its documented memory budget this way.
//
// Usage:
//
//	ssscale                                   # 10⁶-node torus
//	ssscale -n 100000 -graph gnp              # sparse random graph
//	ssscale -n 1000000 -budget-mb 1536        # fail if peak RSS > 1.5 GiB
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/prof"
	"repro/internal/rng"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssscale:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssscale", flag.ContinueOnError)
	n := fs.Int("n", 1_000_000, "target process count")
	kind := fs.String("graph", "torus", "graph family: torus or gnp")
	seed := fs.Uint64("seed", 2009, "seed for graph, initial configuration and coin flips")
	maxSteps := fs.Int("max-steps", 1_000_000, "step budget for the run")
	budgetMB := fs.Int("budget-mb", 0, "fail when peak RSS exceeds this many MiB (0: no gate)")
	cpuProfile := prof.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := prof.Start(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopProfile()
	if *n < 9 {
		return fmt.Errorf("-n must be at least 9")
	}

	var g *graph.Graph
	switch *kind {
	case "torus":
		// Nearest torus at or above n: w×h with w = ⌊√n⌋ (exact for the
		// headline 1000×1000 cell).
		w := int(math.Sqrt(float64(*n)))
		h := (*n + w - 1) / w
		g = graph.Torus(w, h)
	case "gnp":
		g = graph.RandomConnectedGNP(*n, 6/float64(*n), rng.New(rng.Derive(*seed, 22)))
	default:
		return fmt.Errorf("unknown -graph %q (torus or gnp)", *kind)
	}

	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		return err
	}
	rn := core.NewRunner()
	res := &core.RunResult{}
	start := time.Now()
	err = rn.RunRandom(sys, core.RunOptions{
		Scheduler: sched.NewSynchronous(),
		Seed:      rng.Derive(*seed, 1),
		MaxSteps:  *maxSteps,
	}, res)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	// No collection first: a forced GC costs more than the run at small
	// n, and the figure gates nothing where peak RSS is readable. With
	// the garbage included it bounds the live heap from above.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(rn)

	fmt.Fprintf(out, "graph      %s (n=%d, Δ=%d, m=%d)\n", g.Name(), g.N(), g.MaxDegree(), g.M())
	fmt.Fprintf(out, "silent     %v (legitimate %v) after %d rounds, %d steps\n",
		res.Silent, res.LegitimateAtSilence, res.RoundsToSilence, res.StepsToSilence)
	fmt.Fprintf(out, "wall       %.3fs\n", wall.Seconds())
	fmt.Fprintf(out, "heap       %.1f MiB allocated, garbage included (%.0f B/process)\n",
		float64(m.HeapAlloc)/(1<<20), float64(m.HeapAlloc)/float64(g.N()))
	peakMB, havePeak := peakRSSMB()
	if havePeak {
		fmt.Fprintf(out, "peak RSS   %.1f MiB\n", peakMB)
	} else {
		fmt.Fprintf(out, "peak RSS   unavailable\n")
	}

	if !res.Silent || !res.LegitimateAtSilence {
		return fmt.Errorf("run did not reach a legitimate silent configuration within %d steps", *maxSteps)
	}
	if *budgetMB > 0 {
		// Gate on peak RSS when the kernel exposes it; otherwise fall
		// back to the allocated heap, an upper bound of the live heap, so
		// the gate still bites.
		measured, what := peakMB, "peak RSS"
		if !havePeak {
			measured, what = float64(m.HeapAlloc)/(1<<20), "allocated heap"
		}
		if measured > float64(*budgetMB) {
			return fmt.Errorf("%s %.1f MiB exceeds budget %d MiB", what, measured, *budgetMB)
		}
		fmt.Fprintf(out, "budget     PASS (%s %.1f MiB <= %d MiB)\n", what, measured, *budgetMB)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status. The second return is false where procfs is absent
// (non-Linux).
func peakRSSMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}
