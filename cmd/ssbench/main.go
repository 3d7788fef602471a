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
// A custom fault scenario (instead of the registry) is selected with
// -adversary; -faults sizes it and -inject schedules it:
//
//	ssbench -adversary cluster -faults 4                 # BFS-ball faults at start
//	ssbench -adversary uniform -faults 2 -inject on-silence:3
//	ssbench -adversary comm -inject every:200:4
//
// A custom dynamic-topology scenario is selected with -churn (shape, or
// shape:k); -churn-inject schedules the topology mutations, and -churn
// composes with -adversary for simultaneous state-and-topology faults:
//
//	ssbench -churn rewire:2                              # rewire 2 edges at each silence
//	ssbench -churn cut -churn-inject every:500:2
//	ssbench -churn crashjoin:3 -adversary uniform -inject on-silence:2
//
// Trials run on the parallel sharded pool of internal/experiment; for a
// fixed -seed the tables are byte-identical for every -parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
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
		adversary   = fs.String("adversary", "", fmt.Sprintf("run a custom fault scenario with this adversary instead of the registry (one of %v)", fault.Names()))
		faults      = fs.Int("faults", 2, "fault size k for -adversary (processes corrupted per injection)")
		inject      = fs.String("inject", "at-start", "injection schedule for -adversary: at-start | at-step:T | every:T[:N] | on-silence[:N]")
		churn       = fs.String("churn", "", fmt.Sprintf("run a custom dynamic-topology scenario with this churn shape, as NAME or NAME:K (one of %v; composes with -adversary)", fault.ChurnNames()))
		churnInject = fs.String("churn-inject", "on-silence:2", "mutation schedule for -churn: at-start | at-step:T | every:T[:N] | on-silence[:N]")
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
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *adversary == "" && (set["inject"] || set["faults"]) {
		return fmt.Errorf("-inject and -faults only apply to a custom fault scenario: pass -adversary too")
	}
	if *churn == "" && set["churn-inject"] {
		return fmt.Errorf("-churn-inject only applies to a custom churn scenario: pass -churn too")
	}
	if (*adversary != "" || *churn != "") && set["run"] {
		return fmt.Errorf("-adversary and -churn run a custom scenario instead of the registry: drop -run (or drop them)")
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

	type job struct {
		id  string
		run experiment.Runner
	}
	var jobs []job
	if *churn != "" {
		churnName, churnK, err := parseChurnFlag(*churn)
		if err != nil {
			return err
		}
		churnSchedule, err := fault.ParseSchedule(*churnInject)
		if err != nil {
			return err
		}
		advName, advK := *adversary, *faults
		var advSchedule fault.Schedule
		if advName != "" {
			if advSchedule, err = fault.ParseSchedule(*inject); err != nil {
				return err
			}
		}
		jobs = append(jobs, job{id: "EX", run: func(c experiment.Config) (*experiment.Result, error) {
			return experiment.CustomChurn(c, churnName, churnK, churnSchedule, advName, advK, advSchedule)
		}})
	} else if *adversary != "" {
		schedule, err := fault.ParseSchedule(*inject)
		if err != nil {
			return err
		}
		advName, k := *adversary, *faults
		jobs = append(jobs, job{id: "EX", run: func(c experiment.Config) (*experiment.Result, error) {
			return experiment.CustomFault(c, advName, k, schedule)
		}})
	} else {
		for _, id := range ids {
			id = strings.TrimSpace(id)
			runner, err := experiment.ByID(id)
			if err != nil {
				return err
			}
			jobs = append(jobs, job{id: id, run: runner})
		}
	}

	allPass := true
	for _, j := range jobs {
		id := j.id
		started := time.Now()
		res, err := j.run(cfg)
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

// parseChurnFlag splits a -churn value, NAME or NAME:K, into its shape
// name and churn size (default 2). Shape validation happens downstream
// in experiment.CustomChurn so its error lists the known shapes.
func parseChurnFlag(v string) (string, int, error) {
	name, kStr, found := strings.Cut(v, ":")
	if name == "" {
		return "", 0, fmt.Errorf("bad -churn %q: want NAME or NAME:K", v)
	}
	if !found {
		return name, 2, nil
	}
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 {
		return "", 0, fmt.Errorf("bad -churn size in %q: want a positive integer after the colon", v)
	}
	return name, k, nil
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
