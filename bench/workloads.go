package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
)

// scaleN is the scale-sync process count. 10⁵ processes would match
// ssscale's own smoke sizes, but rounds-to-silence of one synchronous
// trial varies by ±20 % with the seed and the op time with it; at 2×10⁴
// a run fits ~100 trials and the median over them is steady across
// seeds, while a step is still 50× wider than any other workload's.
const scaleN = 20000

// registryIDs is the registry workload's experiment list: E1–E21 minus
// E12 (a wall-clock experiment, like E22) and E19, whose verdict is
// seed-sensitive at 50 trials (9 of seeds 1..60 report "mis final
// silent 49/50" and FAIL) and would count as failed operations.
var registryIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
	"E13", "E14", "E15", "E16", "E17", "E18", "E20", "E21"}

const registryTrials = 50

// opResult is one closed-loop operation as its caller saw it.
type opResult struct {
	err    error
	dur    time.Duration // the whole op, verification included
	rssKiB int64         // largest peak RSS among the op's CLI children
	ref    time.Duration // the reference beside the op: mean of the readings before and after
	// Set by the workloads they apply to, zero elsewhere.
	submitDone  time.Duration // service: POST sent -> stream EOF
	events      int           // service: streamed progress events
	trials      int           // trials whose records the op delivered
	activations float64       // scale-sync: processes × steps
	simWall     time.Duration // scale-sync: the wall ssscale reported
}

// workload is one named set of inputs. setup runs setupReps times (each
// from an empty sandbox) and must leave the run ready to measure; op is
// called by the one closed-loop caller with a run-unique index;
// verify runs once after the window for checks too slow to sit inside
// an op; trace is the workload's in-process traced run.
type workload struct {
	name, why string
	// rssAtOp is the op count at which a daemon's VmHWM is read for
	// peak_rss_mb. The run registry is never evicted, so daemon RSS grows
	// with every op served; reading it at a fixed count keeps a faster
	// daemon from being charged for the extra ops it fits in the window.
	rssAtOp int
	setup   func(e *env) error
	op      func(e *env, i int) opResult
	verify  func(e *env) error
	trace   traceFunc
}

// traceFunc is a workload's traced run: it records spans into tr for at
// most budget and returns the per-layer metrics of the layers on the
// workload's path.
type traceFunc func(e *env, w *workload, tr *tracer, budget time.Duration) (traceResult, error)

// deriveSeed is splitmix64 over (seed, i): the harness's own seed
// derivation, independent of the measured program's rng package.
func deriveSeed(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// planShape compiles reference campaign name and returns its cell and
// trial counts: what every output is checked against.
func planShape(name string) (cells, trials int, err error) {
	src, err := campaignSource(name, 1)
	if err != nil {
		return 0, 0, err
	}
	spec, err := campaign.Parse(src)
	if err != nil {
		return 0, 0, err
	}
	plan, err := campaign.Compile(spec, 1)
	if err != nil {
		return 0, 0, err
	}
	return len(plan.Cells), len(plan.Cells) * spec.Trials, nil
}

// suiteShape sums planShape over the suite.
func suiteShape() (cells, trials int, err error) {
	for _, name := range suiteFiles {
		c, t, err := planShape(name)
		if err != nil {
			return 0, 0, err
		}
		cells, trials = cells+c, trials+t
	}
	return cells, trials, nil
}

func lines(b []byte) int { return bytes.Count(b, []byte{'\n'}) }

// checkSuite verifies one sscampaign pass over the suite: the cache
// counts, one jsonl line per trial, and byte-identity with the run's
// reference artifacts.
func checkSuite(arts, ref []artifacts, hits, misses, wantHits, wantMisses, trials int) error {
	if hits != wantHits || misses != wantMisses {
		return fmt.Errorf("cache %d hits %d misses, want %d and %d", hits, misses, wantHits, wantMisses)
	}
	got := 0
	for i := range arts {
		got += lines(arts[i].jsonl)
		if !arts[i].equal(ref[i]) {
			return fmt.Errorf("%s.campaign: artifacts differ from the run's reference bytes", suiteFiles[i])
		}
	}
	if got != trials {
		return fmt.Errorf("jsonl holds %d records, want %d", got, trials)
	}
	return nil
}

func campaignCold() *workload {
	var (
		cells, trials int
		ref           []artifacts
	)
	return &workload{
		name: "campaign-cold",
		why:  "sscampaign over the 146-cell suite into an empty cache: the step engine does 93 % of the work, so compute changes show here and cache or encoder changes do not",
		setup: func(e *env) (err error) {
			ref = nil
			cells, trials, err = suiteShape()
			return err
		},
		op: func(e *env, i int) (r opResult) {
			cache := filepath.Join(e.dir, "cache-"+strconv.Itoa(i))
			defer os.RemoveAll(cache)
			start := time.Now()
			arts, hits, misses, err := e.runSuite(cache, e.nproc)
			if err == nil {
				if ref == nil {
					ref = arts
				}
				err = checkSuite(arts, ref, hits, misses, 0, cells, trials)
			}
			return opResult{err: err, dur: time.Since(start), trials: trials}
		},
		trace: traceCampaign(true),
	}
}

func campaignWarm() *workload {
	var (
		cells, trials int
		ref           []artifacts
	)
	return &workload{
		name: "campaign-warm",
		why:  "the same commands against a cache filled in set-up: compute is bypassed, so lookup, parse/compile, JSONL and table rendering and process start do the work",
		setup: func(e *env) (err error) {
			if cells, trials, err = suiteShape(); err != nil {
				return err
			}
			var hits, misses int
			if ref, hits, misses, err = e.runSuite(filepath.Join(e.dir, "cache"), e.nproc); err != nil {
				return err
			}
			return checkSuite(ref, ref, hits, misses, 0, cells, trials)
		},
		op: func(e *env, i int) opResult {
			start := time.Now()
			arts, hits, misses, err := e.runSuite(filepath.Join(e.dir, "cache"), e.nproc)
			if err == nil {
				err = checkSuite(arts, ref, hits, misses, cells, 0, trials)
			}
			return opResult{err: err, dur: time.Since(start), trials: trials}
		},
		trace: traceCampaign(false),
	}
}

// servedRun is one finished service op kept for the post-window checks.
type servedRun struct {
	id   string
	seed uint64
	arts artifacts
}

// runStatus is the part of GET /v1/runs the checks read.
type runStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Hits   int    `json:"cache_hits"`
	Misses int    `json:"cache_misses"`
}

// checkRuns verifies, from one GET /v1/runs, that every run of the
// window finished with the expected cache split.
func checkRuns(d *daemon, ids map[string]bool, wantHits, wantMisses int) error {
	body, err := d.get("/v1/runs")
	if err != nil {
		return err
	}
	var runs []runStatus
	if err := json.Unmarshal(body, &runs); err != nil {
		return fmt.Errorf("GET /v1/runs: %w", err)
	}
	seen := 0
	for _, r := range runs {
		if !ids[r.ID] {
			continue
		}
		seen++
		if r.State != "done" || r.Hits != wantHits || r.Misses != wantMisses {
			return fmt.Errorf("%s: state %s, cache %d hits %d misses, want done, %d and %d",
				r.ID, r.State, r.Hits, r.Misses, wantHits, wantMisses)
		}
	}
	if seen != len(ids) {
		return fmt.Errorf("GET /v1/runs lists %d of the window's %d runs", seen, len(ids))
	}
	return nil
}

// serviceOp is one service operation: POST the source with stream=1,
// read the stream to EOF, GET the three artifacts. With a tracer each
// client-side boundary is a span of request req.
func serviceOp(d *daemon, src string, trials int, tr *tracer, req int) (opResult, servedRun) {
	start := time.Now()
	root := tr.start(-1, req, "service.op")
	defer tr.end(root)
	st, err := d.submitStream(src)
	tr.interval(root, req, "service.post_first_line", start, start.Add(st.firstLine))
	tr.interval(root, req, "service.stream", start.Add(st.firstLine), start.Add(st.done))
	tr.count("service.stream.events", float64(st.events))
	tr.count("service.stream.bytes", float64(st.bytes))
	if err == nil && st.trialFinish != trials {
		err = fmt.Errorf("%s streamed %d trial-finish lines, want %d", st.id, st.trialFinish, trials)
	}
	var arts artifacts
	for _, a := range []struct {
		kind string
		dst  *[]byte
	}{{"jsonl", &arts.jsonl}, {"events", &arts.events}, {"table", &arts.table}} {
		if err != nil {
			break
		}
		id := tr.start(root, req, "service.get_"+a.kind)
		*a.dst, err = d.get("/v1/runs/" + st.id + "/" + a.kind)
		tr.end(id)
	}
	if err == nil && lines(arts.jsonl) != trials {
		err = fmt.Errorf("%s jsonl holds %d records, want %d", st.id, lines(arts.jsonl), trials)
	}
	return opResult{err: err, dur: time.Since(start), submitDone: st.done, events: st.events, trials: trials},
		servedRun{id: st.id, arts: arts}
}

func serviceFresh() *workload {
	var (
		cells, trials int
		served        []servedRun
	)
	return &workload{
		name:    "service-fresh",
		why:     "sscampaignd computing fault.campaign at a never-seen seed per POST: the same compute as campaign-cold but through service.Execute (coordinator, per-cell store) and the HTTP stream",
		rssAtOp: 16,
		setup: func(e *env) (err error) {
			served = nil
			if cells, trials, err = planShape("fault"); err != nil {
				return err
			}
			return e.startDaemon(filepath.Join(e.dir, "cache"))
		},
		op: func(e *env, i int) opResult {
			seed := deriveSeed(e.seed, uint64(i))
			src, err := campaignSource("fault", seed)
			if err != nil {
				return opResult{err: err}
			}
			r, run := serviceOp(e.daemon, src, trials, e.tr, i)
			if r.err == nil {
				run.seed = seed
				served = append(served, run)
			}
			return r
		},
		// Every op computed all its cells, and the CLI reading the cells
		// the daemon persisted renders the bytes the daemon served.
		verify: func(e *env) error {
			ids := make(map[string]bool, len(served))
			for _, run := range served {
				ids[run.id] = true
			}
			if err := checkRuns(e.daemon, ids, 0, cells); err != nil {
				return err
			}
			for _, run := range served {
				file, err := e.writeCampaign("fault", run.seed)
				if err != nil {
					return err
				}
				arts, hits, _, err := e.runCampaign(file, filepath.Join(e.dir, "cache"), e.nproc)
				if err != nil {
					return err
				}
				if hits != cells || !arts.equal(run.arts) {
					return fmt.Errorf("%s (seed %d): sscampaign over the daemon's cache got %d/%d hits, bytes equal: %v",
						run.id, run.seed, hits, cells, arts.equal(run.arts))
				}
			}
			return nil
		},
		trace: traceService(true),
	}
}

func serviceRepeat() *workload {
	var (
		cells, trials int
		src           string
		ref           artifacts
		ids           map[string]bool
	)
	return &workload{
		name:    "service-repeat",
		why:     "sscampaignd re-serving plain.campaign from a cache sscampaign filled in set-up: HTTP, parse/compile, replay, Broadcast, stream encoding and rendering do the work, the step engine none",
		rssAtOp: 256,
		setup: func(e *env) (err error) {
			ids = make(map[string]bool)
			if cells, trials, err = planShape("plain"); err != nil {
				return err
			}
			if src, err = campaignSource("plain", e.seed); err != nil {
				return err
			}
			// The CLI fills the cache the daemon then reads, so the
			// reference bytes are the CLI's and the two programs are
			// checked to share cache entries.
			cache := filepath.Join(e.dir, "cache")
			file, err := e.writeCampaign("plain", e.seed)
			if err != nil {
				return err
			}
			var misses int
			if ref, _, misses, err = e.runCampaign(file, cache, e.nproc); err != nil {
				return err
			}
			if misses != cells {
				return fmt.Errorf("cache warm-up computed %d of %d cells", misses, cells)
			}
			return e.startDaemon(cache)
		},
		op: func(e *env, i int) opResult {
			r, run := serviceOp(e.daemon, src, trials, e.tr, i)
			if r.err == nil && !run.arts.equal(ref) {
				r.err = fmt.Errorf("%s: served artifacts differ from sscampaign's", run.id)
			}
			if r.err == nil {
				ids[run.id] = true
			}
			return r
		},
		verify: func(e *env) error { return checkRuns(e.daemon, ids, cells, 0) },
		trace:  traceService(false),
	}
}

var (
	scaleGraph  = regexp.MustCompile(`\(n=(\d+),`)
	scaleSilent = regexp.MustCompile(`silent\s+true \(legitimate true\) after (\d+) rounds, (\d+) steps`)
	scaleWall   = regexp.MustCompile(`wall\s+([0-9.]+)s`)
)

func scaleSync() *workload {
	return &workload{
		name:  "scale-sync",
		why:   "ssscale on a 20000-process torus under the synchronous daemon, a new seed per op: dozens of wide steps instead of millions of narrow ones, so what a small-n trick costs at large n or in memory shows",
		setup: func(e *env) error { return nil },
		op: func(e *env, i int) opResult {
			start := time.Now()
			out, _, err := e.runChild("ssscale", "-n", strconv.Itoa(scaleN), "-graph", "torus",
				"-seed", strconv.FormatUint(deriveSeed(e.seed, uint64(i)), 10))
			r := opResult{trials: 1}
			if err == nil {
				g, s, w := scaleGraph.FindSubmatch(out), scaleSilent.FindSubmatch(out), scaleWall.FindSubmatch(out)
				if g == nil || s == nil || w == nil {
					err = fmt.Errorf("ssscale did not report a legitimate silent run:\n%s", out)
				} else {
					n, _ := strconv.Atoi(string(g[1]))
					steps, _ := strconv.Atoi(string(s[2]))
					wall, _ := strconv.ParseFloat(string(w[1]), 64)
					r.activations = float64(n) * float64(steps)
					r.simWall = time.Duration(wall * float64(time.Second))
				}
			}
			r.err, r.dur = err, time.Since(start)
			return r
		},
		trace: traceScale,
	}
}

// registrySeeds is how many seeds the registry workload rotates
// through, one per op. ssbench's work at one seed lies up to a tenth
// either side of the next seed's, so a run that kept one seed would
// report that seed's luck; seeds 1..64 are the ones checked to give 19
// PASS verdicts (E19 aside, see registryIDs).
const registrySeeds = 64

func registry() *workload {
	var first []byte // op 0's tables
	run := func(e *env, i int) ([]byte, error) {
		out, _, err := e.runChild("ssbench", "-run", strings.Join(registryIDs, ","),
			"-trials", strconv.Itoa(registryTrials), "-parallelism", strconv.Itoa(e.nproc),
			"-seed", strconv.FormatUint(1+(e.seed+uint64(i))%registrySeeds, 10))
		if err != nil {
			return nil, err
		}
		if pass := bytes.Count(out, []byte("verdict: PASS")); pass != len(registryIDs) {
			return nil, fmt.Errorf("ssbench printed %d of %d PASS verdicts", pass, len(registryIDs))
		}
		return out, nil
	}
	return &workload{
		name:  "registry",
		why:   "ssbench over 19 registry experiments at 50 trials: thousands of trials on 6 to 16 processes, so per-trial set-up outweighs stepping, the opposite regime from scale-sync",
		setup: func(e *env) error { first = nil; return nil },
		op: func(e *env, i int) opResult {
			start := time.Now()
			out, err := run(e, i)
			if i == 0 {
				first = out
			}
			return opResult{err: err, dur: time.Since(start)}
		},
		// The same seed prints the same tables.
		verify: func(e *env) error {
			out, err := run(e, 0)
			if err == nil && !bytes.Equal(out, first) {
				err = errors.New("ssbench tables differ from op 0's at the same seed")
			}
			return err
		},
		trace: traceRegistry,
	}
}

// workloads lists the six workloads in run order.
func workloads() []*workload {
	return []*workload{campaignCold(), campaignWarm(), serviceFresh(), serviceRepeat(), scaleSync(), registry()}
}
