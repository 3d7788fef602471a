package campaign

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

func TestParseStop(t *testing.T) {
	t.Parallel()
	spec := mustParse(t, minimal()+"stop ci:2\n")
	want := engine.StopRule{HalfWidth: 2, Min: defaultStopMin, Max: defaultStopMax}
	if spec.Stop != want {
		t.Fatalf("stop ci:2 = %+v, want %+v", spec.Stop, want)
	}
	spec = mustParse(t, minimal()+"stop ci:0.5:3..20\n")
	if spec.Stop != (engine.StopRule{HalfWidth: 0.5, Min: 3, Max: 20}) {
		t.Fatalf("stop ci:0.5:3..20 = %+v", spec.Stop)
	}
	if mustParse(t, minimal()).Stop.Enabled() {
		t.Fatal("stop enabled without a stop directive")
	}

	cases := []struct{ src, frag string }{
		{minimal() + "stop\n", "exactly one rule"},
		{minimal() + "stop ci:2 ci:3\n", "exactly one rule"},
		{minimal() + "stop ci:1\nstop ci:2\n", "duplicate"},
		{minimal() + "stop every:5\n", "bad rule"},
		{minimal() + "stop ci:zero\n", "bad CI half-width"},
		{minimal() + "stop ci:0\n", "bad CI half-width"},
		{minimal() + "stop ci:-1\n", "bad CI half-width"},
		{minimal() + "stop ci:+Inf\n", "bad CI half-width"},
		{minimal() + "stop ci:2:5\n", "bad trial bounds"},
		{minimal() + "stop ci:2:1..5\n", "bad trial bounds"},
		{minimal() + "stop ci:2:9..5\n", "bad trial bounds"},
		{minimal() + "stop ci:2:5..x\n", "bad trial bounds"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("Parse(%q) error %v, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestParseStopRoundTrip(t *testing.T) {
	t.Parallel()
	src := minimal() + "stop ci:1.5:4..32\n"
	spec := mustParse(t, src)
	canon := spec.String()
	if !strings.Contains(canon, "stop ci:1.5:4..32") {
		t.Fatalf("canonical form lost the stop rule:\n%s", canon)
	}
	spec2 := mustParse(t, canon)
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("stop round-trip mismatch:\n%+v\n%+v", spec, spec2)
	}
}

// adaptiveSrc is a small adaptive campaign: the half-width target is
// loose enough that every cell's interval closes at the minimum, so the
// realized counts are deterministic (and well under the fixed budget a
// non-adaptive run would spend).
const adaptiveSrc = "campaign a\nseed 2009\ntrials 8\nmax-steps 100000\nstop ci:1000:3..8\n" +
	"graph path 5\ngraph cycle 6\nprotocol coloring\ndaemon random-subset synchronous\n" +
	"metrics silent rounds\n"

// TestRunAdaptiveRealizedCounts: an enabled stop rule spends fewer
// trials than the fixed budget, the realized counts are identical across
// Parallelism, and the summary table reports them with CI columns.
func TestRunAdaptiveRealizedCounts(t *testing.T) {
	t.Parallel()
	var want []int
	for _, par := range []int{1, 4} {
		plan, err := Compile(mustParse(t, adaptiveSrc), par)
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Run(RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(out.Results))
		for i := range out.Results {
			counts[i] = len(out.Results[i].Records)
			if counts[i] != 3 {
				t.Fatalf("cell %d realized %d trials, want Min=3 under the loose target", i, counts[i])
			}
		}
		if want == nil {
			want = counts
		} else if !reflect.DeepEqual(counts, want) {
			t.Fatalf("parallelism %d realized counts %v != parallelism 1's %v", par, counts, want)
		}

		tab := out.Table()
		if !strings.Contains(tab.Title, "adaptive trials (stop ci:1000:3..8)") {
			t.Fatalf("table title missing the stop rule: %q", tab.Title)
		}
		wantHeaders := []string{"cell", "key", "trials", "silent", "rounds", "±ci95"}
		if !reflect.DeepEqual(tab.Headers, wantHeaders) {
			t.Fatalf("table headers = %v, want %v", tab.Headers, wantHeaders)
		}
		for _, row := range tab.Rows {
			if row[2] != "3" {
				t.Fatalf("trials column = %q, want 3: %v", row[2], row)
			}
			if row[5] == "n/a" || row[5] == "" {
				t.Fatalf("ci column empty with 3 trials: %v", row)
			}
		}
	}
}

// TestTableCIDegenerate: a single-trial cell has no interval; the ±ci95
// column must read n/a rather than a fabricated 0.
func TestTableCIDegenerate(t *testing.T) {
	t.Parallel()
	plan, err := Compile(mustParse(t, "campaign one\ntrials 1\nmax-steps 100000\ngraph path 4\nprotocol coloring\nmetrics rounds\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab := out.Table()
	if tab.Rows[0][4] != "n/a" {
		t.Fatalf("single-trial ci column = %q, want n/a (row %v)", tab.Rows[0][4], tab.Rows[0])
	}
}

// TestAdaptiveCacheRoundTrip: realized trial counts survive the cache —
// a warm re-run serves every cell from disk with identical records, and
// a fixed-budget run never reuses adaptive entries (the stop rule is
// part of the cell fingerprint).
func TestAdaptiveCacheRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plan, err := Compile(mustParse(t, adaptiveSrc), 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != len(plan.Cells) {
		t.Fatalf("cold run: %d hits, %d misses", cold.CacheHits, cold.CacheMisses)
	}
	warm, err := plan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(plan.Cells) || warm.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits, %d misses", warm.CacheHits, warm.CacheMisses)
	}
	for i := range cold.Results {
		if !warm.Results[i].FromCache {
			t.Fatalf("cell %d not served from cache", i)
		}
		if !reflect.DeepEqual(cold.Results[i].Records, warm.Results[i].Records) {
			t.Fatalf("cell %d records changed through the cache", i)
		}
	}

	// Same axes without the stop rule: a different fingerprint, so the
	// adaptive entries must not be served (their realized counts would be
	// wrong for an 8-trial fixed budget).
	fixedSrc := strings.Replace(adaptiveSrc, "stop ci:1000:3..8\n", "", 1)
	fixedPlan, err := Compile(mustParse(t, fixedSrc), 2)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := fixedPlan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.CacheHits != 0 {
		t.Fatalf("fixed-budget run reused %d adaptive cache entries", fixed.CacheHits)
	}
	for i := range fixed.Results {
		if len(fixed.Results[i].Records) != 8 {
			t.Fatalf("fixed cell %d has %d records, want the full budget 8", i, len(fixed.Results[i].Records))
		}
	}
}

// canonicalLog runs the plan with a fresh ReplaySink and returns the
// flushed canonical event log.
func canonicalLog(t *testing.T, src string, par int, cacheDir string) []byte {
	t.Helper()
	plan, err := Compile(mustParse(t, src), par)
	if err != nil {
		t.Fatal(err)
	}
	var be Backend // "" runs uncached
	if cacheDir != "" {
		be = NewDirBackend(cacheDir)
	}
	sink := obs.NewReplaySink()
	if _, err := plan.Run(RunOptions{Cache: be, Observer: sink}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("observed campaign wrote an empty canonical log")
	}
	return buf.Bytes()
}

// TestEventLogDeterminism: the acceptance contract of the -events flag —
// the canonical log is byte-identical across parallelism values AND
// across cache states (cold run populating the cache, uncached run,
// fully warm run replaying every cell).
func TestEventLogDeterminism(t *testing.T) {
	t.Parallel()
	const src = "campaign ev\nseed 2009\ntrials 2\nmax-steps 100000\n" +
		"graph path 5\ngraph cycle 6\nprotocol coloring mis\nmetrics silent rounds\n"
	dir := t.TempDir()
	cold := canonicalLog(t, src, 1, dir)
	uncached := canonicalLog(t, src, 4, "")
	warm := canonicalLog(t, src, 4, dir)
	if !bytes.Equal(cold, uncached) {
		t.Fatalf("event log differs between parallelism 1 and 4:\n--- p1 cold\n%s--- p4 no cache\n%s", cold, uncached)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("event log differs between cold and warm cache:\n--- cold\n%s--- warm\n%s", cold, warm)
	}
	// Adaptive campaigns share the contract: realized counts replay from
	// the cache with the engine's exact trial seeds.
	adir := t.TempDir()
	acold := canonicalLog(t, adaptiveSrc, 4, adir)
	awarm := canonicalLog(t, adaptiveSrc, 1, adir)
	if !bytes.Equal(acold, awarm) {
		t.Fatalf("adaptive event log differs between cold and warm cache:\n--- cold\n%s--- warm\n%s", acold, awarm)
	}
}
