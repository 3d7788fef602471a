// Command sssim runs one of the paper's self-stabilizing protocols on a
// generated network from an adversarial initial configuration and prints
// the convergence and communication-efficiency report. It is for
// looking at one trial whole: ssbench and sscampaign aggregate trials
// into tables and never print a single run's full recorder report.
//
// Usage:
//
//	sssim -protocol mis -graph grid -n 16 -sched random-subset -seed 1 -suffix 64
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	selfstab "repro"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sssim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sssim", flag.ContinueOnError)
	var (
		protocol  = fs.String("protocol", "coloring", "protocol: "+strings.Join(engine.Families(), "|"))
		graphName = fs.String("graph", "gnp", "topology: "+strings.Join(graph.NamedGenerators(), "|"))
		graphFile = fs.String("file", "", "read the network from an edge-list file instead of generating one")
		n         = fs.Int("n", 16, "approximate network size")
		seed      = fs.Uint64("seed", 1, "random seed (initial configuration, scheduler, coin flips)")
		schedName = fs.String("sched", "random-subset", "scheduler: "+strings.Join(sched.Names(), "|"))
		maxSteps  = fs.Int("max-steps", 1_000_000, "step budget")
		suffix    = fs.Int("suffix", 0, "post-silence rounds to observe for stability measurement")
		quiet     = fs.Bool("q", false, "print only the one-line summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var net *selfstab.Network
	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			return err
		}
		g, err := graph.Decode(f)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		net = selfstab.NewNetwork(g)
	} else {
		generated, err := selfstab.Generate(*graphName, *n, *seed)
		if err != nil {
			return err
		}
		net = generated
	}
	sys, err := selfstab.New(net, *protocol)
	if err != nil {
		return err
	}
	res, err := selfstab.Run(sys, selfstab.Options{
		Seed:         *seed,
		Scheduler:    *schedName,
		MaxSteps:     *maxSteps,
		SuffixRounds: *suffix,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s on %s under %s (seed %d): silent=%v legitimate=%v steps=%d rounds=%d\n",
		sys.Spec().Name, net.Graph, *schedName, *seed,
		res.Silent, res.LegitimateAtSilence, res.StepsToSilence, res.RoundsToSilence)
	if *quiet {
		return nil
	}
	rep := res.Report
	fmt.Fprintf(out, "  k-efficiency (Def. 4):        %d neighbor(s) per step\n", rep.KEfficiency)
	fmt.Fprintf(out, "  comm complexity (Def. 5):     %d bits per step\n", rep.CommComplexityBits)
	maxP := 0
	for p := 0; p < net.Graph.N(); p++ {
		if net.Graph.Degree(p) > net.Graph.Degree(maxP) {
			maxP = p
		}
	}
	fmt.Fprintf(out, "  space complexity (Def. 6):    %d bits at a degree-%d process\n",
		trace.SpaceComplexityBits(sys, maxP, rep.CommComplexityBits), net.Graph.Degree(maxP))
	fmt.Fprintf(out, "  moves=%d selections=%d comm-writes=%d total-bits=%d\n",
		rep.Moves, rep.Selections, rep.CommWrites, rep.TotalBits)
	if *suffix > 0 && res.Silent {
		fmt.Fprintf(out, "  stabilized phase (%d rounds): 1-stable processes=%d/%d, reads/sel=%.2f, bits/sel=%.2f\n",
			rep.SuffixRounds, rep.StableProcesses(1), rep.N,
			rep.SuffixAvgReadsPerSelection(), rep.SuffixAvgBitsPerSelection())
	}
	return nil
}
