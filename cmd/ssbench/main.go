// Command ssbench regenerates the paper's experiment tables (E1-E22;
// `ssbench -list` prints the artifact index, the README describes the
// engine; E16-E18 exercise the adversary subsystem of internal/fault,
// E19-E21 the dynamic-topology churn axis).
// Every table reports measured data plus a PASS/FAIL verdict against the
// corresponding paper claim.
//
// Usage:
//
//	ssbench                      # run everything, text tables
//	ssbench -list                # print the registry (id + description)
//	ssbench -run E3,E5           # selected experiments (unknown ids error)
//	ssbench -markdown            # markdown output
//	ssbench -quick -trials 2     # fast pass
//	ssbench -parallelism 1       # sequential pool (identical tables)
//	ssbench -time                # per-experiment wall clock on stderr
//	ssbench -events run.events   # canonical deterministic event log
//	ssbench -log-level debug     # live slog JSON events on stderr
//
// A single fault or churn scenario is a campaign file, not a flag set:
// `sscampaign examples/campaigns/ex-fault.campaign` (and ex-churn,
// ex-composed) runs what the registry's E16-E21 sweep, on one graph.
//
// Trials run on the parallel sharded pool of internal/experiment; for a
// fixed -seed the tables are byte-identical for every -parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssbench", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "print the experiment registry (id and description) and exit")
		runIDs      = fs.String("run", "", "comma-separated experiment ids (default: all; unknown ids are a hard error)")
		seed        = fs.Uint64("seed", 2009, "master seed")
		trials      = fs.Int("trials", 5, "adversarial initial configurations per cell")
		maxSteps    = fs.Int("max-steps", 1_000_000, "per-run step budget")
		quick       = fs.Bool("quick", false, "small graph suite")
		markdown    = fs.Bool("markdown", false, "emit markdown tables")
		parallelism = fs.Int("parallelism", 0, "trial pool workers (0: GOMAXPROCS; results are identical for every value)")
		timeIt      = fs.Bool("time", false, "report per-experiment wall clock on stderr")
		eventsPath  = fs.String("events", "", "write the canonical deterministic event log to this file")
		logLevel    = fs.String("log-level", "off", "live slog JSON events on stderr: off, info (cell granularity) or debug (every trial)")
		cpuProfile  = prof.Flag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := prof.Start(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopProfile()
	if *list {
		for _, e := range experiment.Registry() {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Desc)
		}
		return nil
	}
	ids := experiment.IDs()
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
	}
	var replay *obs.ReplaySink
	if *eventsPath != "" {
		if *eventsPath == "-" {
			return fmt.Errorf("-events - is not supported here (stdout carries the tables): write the event log to a file")
		}
		replay = obs.NewReplaySink()
	}
	logSink, err := obs.LogLevelSink(*logLevel, os.Stderr)
	if err != nil {
		return err
	}

	cfg := experiment.Config{
		Seed:        *seed,
		Trials:      *trials,
		MaxSteps:    *maxSteps,
		Quick:       *quick,
		Parallelism: *parallelism,
		Observer:    obs.Tee(replayOrNil(replay), logSink),
	}

	var runners []experiment.Runner
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		runner, err := experiment.ByID(ids[i])
		if err != nil {
			return err
		}
		runners = append(runners, runner)
	}

	allPass := true
	for i, runner := range runners {
		id := ids[i]
		started := time.Now()
		res, err := runner(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *timeIt {
			fmt.Fprintf(os.Stderr, "%s\t%.3fs\n", id, time.Since(started).Seconds())
		}
		allPass = allPass && res.Pass
		if *markdown {
			fmt.Fprintf(out, "## %s — %s\n\n", res.ID, res.Title)
			fmt.Fprintf(out, "*Paper artifact:* %s.\n\n*Claim:* %s.\n\n", res.PaperRef, res.Claim)
			fmt.Fprintln(out, res.Table.Markdown())
			fmt.Fprintf(out, "**Verdict: %s**", verdict(res.Pass))
			if res.Notes != "" {
				fmt.Fprintf(out, " — %s", res.Notes)
			}
			fmt.Fprint(out, "\n\n")
		} else {
			fmt.Fprintln(out, res.Table.String())
			fmt.Fprintf(out, "paper: %s | claim: %s\nverdict: %s", res.PaperRef, res.Claim, verdict(res.Pass))
			if res.Notes != "" {
				fmt.Fprintf(out, " (%s)", res.Notes)
			}
			fmt.Fprint(out, "\n\n")
		}
	}
	if replay != nil {
		f, err := os.Create(*eventsPath)
		if err != nil {
			return err
		}
		if err := replay.WriteCanonical(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !allPass {
		return fmt.Errorf("some experiments FAILED their paper-claim checks")
	}
	return nil
}

// replayOrNil avoids handing obs.Tee a typed-nil Observer interface (a
// nil *ReplaySink inside a non-nil interface would pass Tee's nil
// filter and then panic on use).
func replayOrNil(r *obs.ReplaySink) obs.Observer {
	if r == nil {
		return nil
	}
	return r
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
