package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// setupReps is how often set-up runs before the window; setup_s is
	// the median, so one slow start (the checkout's first real build)
	// does not decide it.
	setupReps = 5
	// maxFailures ends a window early: a broken program fails fast, and a
	// window of a hundred thousand failed ops tells nothing more than six.
	maxFailures = 5
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// traceResult is what a workload's traced run hands back: how many
// traced operations it checked, how many failed their check, and the
// per-layer metrics of the layers on its path.
type traceResult struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // printed under the rows
}

// window is what the closed-loop caller recorded between the start and
// the end of the measured interval.
type window struct {
	ops       []opResult
	busy      time.Duration // the ops' durations summed: the window less the reference readings
	daemonCPU time.Duration
	daemonRSS int64 // KiB, at the workload's rssAtOp-th op or the end
	rssOps    int   // ops done when daemonRSS was read
}

// measure runs w's closed loop for the given duration: one caller, which
// sends its next op only after the previous one returned, and reads the
// reference before the first op and after every op. An op's reference
// is the mean of the readings on either side of it.
func measure(e *env, w *workload, d time.Duration) (win window, err error) {
	pid := 0
	var cpu0 time.Duration
	if e.daemon != nil {
		pid = e.daemon.cmd.Process.Pid
		if cpu0, err = procCPU(pid); err != nil {
			return win, err
		}
	}
	readRSS := func() {
		if rss, err := procPeakRSSKiB(pid); err == nil {
			win.daemonRSS, win.rssOps = rss, len(win.ops)
		}
	}
	ref := newReference(e.nproc)
	ref.read() // faults the tables in
	before := ref.read()
	failed := 0
	for start := time.Now(); time.Since(start) < d && failed <= maxFailures; {
		r := w.op(e, len(win.ops))
		r.rssKiB = e.takeChildRSS()
		if r.err != nil {
			failed++
			fmt.Fprintf(e.log, "%s: op failed: %v\n", w.name, r.err)
		}
		after := ref.read()
		r.ref, before = (before+after)/2, after
		win.ops = append(win.ops, r)
		win.busy += r.dur
		if pid != 0 && len(win.ops) == w.rssAtOp {
			readRSS()
		}
	}
	if pid != 0 {
		cpu1, err := procCPU(pid)
		if err != nil {
			return win, err
		}
		win.daemonCPU = cpu1 - cpu0
		if win.rssOps == 0 {
			readRSS()
		}
	}
	return win, nil
}

// row is one printed metric: the JSON line carries the end-to-end rows,
// the text above it carries every row.
type row struct {
	name, unit, note string
	value            float64
	na               bool // not defined on this workload or sample count
}

// report turns a window into its printed rows: first the gated
// end-to-end metrics of BENCHMARK.json in their declared order, then the
// other names of the issue, which are reported but carry no bound.
func report(e *env, w *workload, setups []float64, win window) (rows []row, attempted, failed int) {
	var durs, ratios, refs, submits, rss []float64
	var events, trials int
	var activations float64
	var simWall time.Duration
	for _, r := range win.ops {
		attempted++
		if r.err != nil {
			failed++
			continue
		}
		durs = append(durs, ms(r.dur))
		ratios = append(ratios, float64(r.dur)/float64(r.ref))
		refs = append(refs, ms(r.ref))
		rss = append(rss, float64(r.rssKiB)/1024)
		if r.submitDone > 0 {
			submits = append(submits, ms(r.submitDone))
		}
		events += r.events
		trials += r.trials
		activations += r.activations
		simWall += r.simWall
	}
	ok := len(durs)
	n := fmt.Sprintf("n=%d", ok)
	secs := win.busy.Seconds()
	perSec := func(v float64) float64 {
		if secs == 0 {
			return 0
		}
		return v / secs
	}
	perOp := func(v float64) float64 {
		if ok == 0 {
			return 0
		}
		return v / float64(ok)
	}

	cpu, peak, rssNote := e.childCPU, median(rss), "median over ops of the op's largest child ru_maxrss"
	cpuNote := "children's user+sys / ops"
	if w.rssAtOp > 0 {
		cpu, peak = win.daemonCPU, float64(win.daemonRSS)/1024
		cpuNote = "daemon user+sys over the window / ops"
		rssNote = fmt.Sprintf("daemon VmHWM after %d ops", win.rssOps)
	}
	rows = []row{
		{name: "setup_s", unit: "s", value: median(setups), note: fmt.Sprintf("median of %d set-ups (go build, sandbox, workload set-up)", len(setups))},
		{name: "op_ref_ratio", unit: "ratio", value: median(ratios), note: "median over the ops of op time / reference time beside it, verification included, " + n},
		{name: "peak_rss_mb", unit: "MiB", value: peak, note: rssNote},
	}

	hi := row{name: "op_ms_hi", unit: "ms", na: true, note: n + " supports no percentile (10 samples must lie beyond it)"}
	if p, has := highPercentile(ok); has {
		hi = row{name: "op_ms_hi", unit: "ms", value: percentile(durs, p), note: fmt.Sprintf("p%v, %s", p, n)}
	}
	opt := func(name, unit string, defined bool, v float64, note string) row {
		if !defined {
			return row{name: name, unit: unit, na: true, note: "not defined on this workload"}
		}
		return row{name: name, unit: unit, value: v, note: note}
	}
	rows = append(rows,
		row{name: "ref_ms_p50", unit: "ms", value: median(refs), note: fmt.Sprintf("the reference as read beside the ops: the machine's speed during this run, n=%d", len(refs))},
		row{name: "op_ms_p50", unit: "ms", value: median(durs), note: n},
		hi,
		row{name: "ops_per_s", unit: "1/s", value: perSec(float64(ok)), note: fmt.Sprintf("%d ops in %.2fs of op time", ok, secs)},
		row{name: "cpu_s_per_op", unit: "s", value: perOp(cpu.Seconds()), note: cpuNote},
		opt("trials_per_s", "1/s", trials > 0, perSec(float64(trials)), fmt.Sprintf("%.0f trials per op", perOp(float64(trials)))),
		opt("submit_done_ms_p50", "ms", len(submits) > 0, median(submits), "POST sent -> stream EOF, "+n),
		opt("stream_events_per_s", "1/s", events > 0, perSec(float64(events)), fmt.Sprintf("%.0f events per op", perOp(float64(events)))),
		opt("activations_per_s", "1/s", simWall > 0, activations/max(simWall.Seconds(), 1e-9), "processes x steps / ssscale's reported wall, summed over ops"),
		row{name: "fail_ratio", unit: "ratio", value: float64(failed) / float64(max(attempted, 1)), note: fmt.Sprintf("%d failed of %d attempted", failed, attempted)},
	)
	return rows, attempted, failed
}

// options are one run's settings.
type options struct {
	seed    uint64
	seconds int
	trace   bool
}

// runWorkload runs one workload — set-up, the measured window or the
// traced run, verification — prints its rows to out and returns the
// result line. Every process it starts has ended when it returns.
func runWorkload(w *workload, opt options, out, log io.Writer) (res result, err error) {
	e := &env{seed: opt.seed, nproc: runtime.NumCPU(), dir: filepath.Join(outDir, w.name), log: log}
	defer e.stopDaemon()
	defer e.stopLauncher()
	budget := time.Duration(opt.seconds) * time.Second
	mode := "end-to-end"
	if opt.trace {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(out, "== %s (%s)  seed=%d  window=%ds  closed loop, 1 caller, children at parallelism %d\n   why: %s\n",
		w.name, mode, opt.seed, opt.seconds, e.nproc, w.why)
	if opt.trace {
		return runTraced(e, w, budget, out)
	}

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		e.stopDaemon()
		start := time.Now()
		if err := buildPrograms(); err != nil {
			return res, err
		}
		if err := e.reset(); err != nil {
			return res, err
		}
		if err := w.setup(e); err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e.childCPU = 0 // set-up children are not part of the window
	e.takeChildRSS()

	win, err := measure(e, w, budget)
	if err != nil {
		return res, err
	}
	rows, attempted, failed := report(e, w, setups, win)
	if w.verify != nil && failed == 0 {
		if err := w.verify(e); err != nil {
			fmt.Fprintf(log, "%s: verification failed: %v\n", w.name, err)
			failed = max(failed, 1)
		}
	}
	res = result{Correct: failed == 0 && attempted > 0, Attempted: max(attempted, 1), Failed: failed, Metrics: make(map[string]metricValue)}
	for i, r := range rows {
		printRow(out, r)
		if i < len(endToEnd) {
			res.Metrics[r.name] = metricValue{Value: r.value, Unit: r.unit}
			if r.value <= 0 {
				res.Correct = false // an end-to-end metric that reads 0 was not measured
			}
		}
	}
	return res, nil
}

// runTraced runs w's traced in-process pass, writes the spans to
// bench/out/trace.json and reports every per-layer metric, 0 for the
// layers off w's path.
func runTraced(e *env, w *workload, budget time.Duration, out io.Writer) (res result, err error) {
	if err := buildPrograms(); err != nil {
		return res, err
	}
	if err := e.reset(); err != nil {
		return res, err
	}
	tr := newTracer()
	got, err := w.trace(e, w, tr, budget)
	if err != nil {
		return res, fmt.Errorf("%s traced run: %w", w.name, err)
	}
	res = result{Correct: got.failed == 0 && got.attempted > 0, Attempted: max(got.attempted, 1), Failed: got.failed, Metrics: make(map[string]metricValue)}
	off := 0
	for _, d := range perLayer {
		v, on := got.metrics[d.name]
		if on {
			printRow(out, row{name: d.name, unit: d.unit, value: v})
		} else {
			off++
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(out, "   %d more rows, of layers off this workload's path, read 0\n", off)
	for _, n := range got.notes {
		fmt.Fprintf(out, "   %s\n", n)
	}
	for name := range got.metrics {
		if _, known := res.Metrics[name]; !known {
			return res, fmt.Errorf("%s traced run reported %q, which perLayer does not list", w.name, name)
		}
	}
	path := filepath.Join(outDir, "trace.json")
	if err := tr.write(path, w.name, e.seed, got.metrics); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "   %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

func printRow(out io.Writer, r row) {
	value := "-"
	if !r.na {
		value = fmt.Sprintf("%.6g", r.value)
	}
	fmt.Fprintln(out, strings.TrimRight(fmt.Sprintf("   %-32s %14s %-6s %s", r.name, value, r.unit, r.note), " "))
}
