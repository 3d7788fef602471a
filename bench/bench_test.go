package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// These tests run no workload: they pin the harness's own arithmetic and
// its agreement with BENCHMARK.json, in milliseconds.

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, // nothing has 10 samples beyond it
		{20, 50, true}, {21, 50, true}, // p50 and nothing above: p75 of 21 leaves 5
		{39, 50, true}, {40, 75, true},
		{100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < 10 {
			t.Errorf("highPercentile(%d) = p%v leaves %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("percentile(5 samples, 90) = %v, want the 5th", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median/percentile reordered their input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Req: 7, Name: "root", Start: 0, End: 100 * u},
		// Nested: child 1 holds grandchild 2.
		{ID: 1, Parent: 0, Req: 7, Name: "a", Start: 10 * u, End: 40 * u},
		{ID: 2, Parent: 1, Req: 7, Name: "b", Start: 15 * u, End: 25 * u},
		// Overlapping siblings (two callers): 50..70 and 60..80 cover 30, not 40.
		{ID: 3, Parent: 0, Req: 7, Name: "c", Start: 50 * u, End: 70 * u},
		{ID: 4, Parent: 0, Req: 7, Name: "c", Start: 60 * u, End: 80 * u},
		// A child running past its parent's end is clipped to it.
		{ID: 5, Parent: 0, Req: 7, Name: "d", Start: 95 * u, End: 120 * u},
		// Another request, and a span never closed.
		{ID: 6, Parent: -1, Req: 8, Name: "root", Start: 0, End: 5 * u},
		{ID: 7, Parent: 6, Req: 8, Name: "open", Start: 1 * u, End: -1},
	}
	got := selfTimes(spans)
	want := map[int]map[string]time.Duration{
		7: {"root": (100 - 30 - 30 - 5) * u, "a": 20 * u, "b": 10 * u, "c": 40 * u, "d": 25 * u},
		8: {"root": 5 * u},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.start(-1, 0, "x")
	tr.end(id)
	tr.count("n", 1)
	tr.interval(-1, 0, "y", time.Now(), time.Now())
	if id != -1 {
		t.Errorf("nil tracer start = %d, want -1", id)
	}
}

// TestSeedRewrite: the rewritten source parses, carries the new seed and
// differs from the committed file in nothing else.
func TestSeedRewrite(t *testing.T) {
	const seed = 18446744073709551557 // largest 64-bit prime: the full range survives
	for _, name := range suiteFiles {
		orig, err := campaignSource(name, 2009)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := campaignFS.ReadFile("campaigns/" + name + ".campaign")
		if orig != string(raw) {
			t.Errorf("%s: rewriting to the committed seed 2009 changed the file", name)
		}
		src, err := campaignSource(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := campaign.Parse(src)
		if err != nil {
			t.Fatalf("%s at seed %d: %v", name, uint64(seed), err)
		}
		if spec.Seed != seed {
			t.Errorf("%s: parsed seed %d, want %d", name, spec.Seed, uint64(seed))
		}
		base, err := campaign.Parse(orig)
		if err != nil {
			t.Fatal(err)
		}
		base.Seed = seed
		if spec.String() != base.String() {
			t.Errorf("%s: the rewrite changed more than the seed:\n%s\nvs\n%s", name, spec, base)
		}
		if a, b := strings.Split(src, "\n"), strings.Split(orig, "\n"); len(a) != len(b) {
			t.Errorf("%s: line count changed", name)
		} else {
			for i := range a {
				if a[i] != b[i] && !strings.HasPrefix(b[i], "seed ") {
					t.Errorf("%s line %d changed: %q -> %q", name, i+1, b[i], a[i])
				}
			}
		}
	}
}

// TestSuiteShape pins the counts the campaign headers and the README
// state.
func TestSuiteShape(t *testing.T) {
	want := map[string][2]int{"plain": {80, 800}, "fault": {54, 432}, "churn": {12, 240}}
	for name, w := range want {
		cells, trials, err := planShape(name)
		if err != nil {
			t.Fatal(err)
		}
		if cells != w[0] || trials != w[1] {
			t.Errorf("%s: %d cells, %d trials; want %d, %d", name, cells, trials, w[0], w[1])
		}
	}
	if cells, trials, err := suiteShape(); err != nil || cells != 146 || trials != 1472 {
		t.Errorf("suite: %d cells, %d trials, %v; want 146, 1472", cells, trials, err)
	}
}

// TestBenchmarkJSON: BENCHMARK.json and the harness name the same
// command, workloads and metrics, within the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bm.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	ws := workloads()
	if len(bm.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bm.Workloads), len(ws))
	}
	for i, w := range ws {
		check(w.name)
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			check(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || !unit.MatchString(d.unit) ||
				(d.better != "lower" && d.better != "higher") {
				t.Errorf("%s row %d: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v, harness %v (must be in (0, 0.25])", d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd, true)
	same("per_layer", bm.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}
