// Command bench is the repository's benchmark: an experimental frame
// that sits wholly outside the measured program. It builds the shipped
// binaries (sscampaign, sscampaignd, ssscale, ssbench), drives six named
// workloads against them with inputs generated from -seed, verifies
// every output, and prints each metric by name with its unit; the last
// line of a run is one JSON object (see BENCHMARK.json and README.md).
//
//	go run ./bench                           # all six workloads, seed 2009
//	go run ./bench -workload campaign-warm   # one workload
//	go run ./bench -trace 1                  # the traced in-process runs: per-layer metrics, bench/out/trace.json
//	go run ./bench -aa                       # every workload twice; exit 1 if the two disagree beyond a bound
//
// End-to-end metrics come from the real binaries with tracing off.
// Per-layer metrics come from spans this package records around calls
// into the program's public functions; the program itself holds no
// tracing code and this package changes none of its lines.
//
// Run it from the repository root: it builds ./cmd/... and writes only
// under bench/out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all six, in order)")
	seed := fs.Uint64("seed", 2009, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured window (or of the traced run) in seconds")
	traceOn := fs.Int("trace", 0, "1: run the traced in-process pass and report the per-layer metrics instead of the end-to-end ones")
	aa := fs.Bool("aa", false, "run every selected workload twice back to back and fail if the two runs disagree beyond a metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || (*aa && *traceOn == 1) {
		fmt.Fprintln(stderr, "bench: want [-workload NAME] [-seed N] [-seconds S>=1] [-trace 0|1] [-aa] (-aa compares end-to-end runs, so not with -trace 1)")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root (go run ./bench): no go.mod here")
		return 2
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	opt := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1}
	code := 0
	for _, w := range selected {
		first, ok := runAndPrint(w, opt, stdout, stderr)
		if !ok {
			code = 1
		}
		if *aa && ok {
			second, ok := runAndPrint(w, opt, stdout, stderr)
			if !ok || !agree(w.name, first, second, stdout) {
				code = 1
			}
		}
	}
	return code
}

// runAndPrint runs one workload and prints its result line; ok is false
// when the run errored or any output failed verification.
func runAndPrint(w *workload, opt options, stdout, stderr io.Writer) (res result, ok bool) {
	res, err := runWorkload(w, opt, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return res, false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return res, false
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, res.Correct
}

// agree is the A/A self-check: two runs of the same code must read
// within each end-to-end metric's bound of one another. setup_s is
// printed but cannot fail the check, as in the pipeline, which exempts
// it from the spread rule and compares it on medians of ten runs only:
// it has to be a time in seconds, and on this box two single readings
// of any time can lie a spell apart (see endToEnd).
func agree(workload string, a, b result, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "-- A/A %s\n", workload)
	for _, d := range endToEnd {
		x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
		diff := math.Abs(y-x) / x
		verdict := "ok"
		switch {
		case diff <= d.bound:
		case d.name == "setup_s":
			verdict = "beyond (not checked on single runs)"
		default:
			verdict, ok = "BREACH", false
		}
		fmt.Fprintf(out, "   %-16s %12.6g %12.6g %-6s diff %5.1f%%  bound %4.1f%%  %s\n",
			d.name, x, y, d.unit, 100*diff, 100*d.bound, verdict)
	}
	return ok
}
