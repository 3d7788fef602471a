package campaign

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// minimal returns the smallest useful plain campaign source.
func minimal() string {
	return "campaign t\ngraph path 4\nprotocol coloring\n"
}

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return spec
}

func TestParseDefaults(t *testing.T) {
	t.Parallel()
	spec := mustParse(t, minimal())
	if spec.Name != "t" || spec.Seed != 2009 || spec.Trials != 5 || spec.MaxSteps != 1_000_000 {
		t.Fatalf("defaults wrong: %+v", spec)
	}
	if !reflect.DeepEqual(spec.Daemons, []string{"random-subset"}) {
		t.Fatalf("default daemon wrong: %v", spec.Daemons)
	}
	if !reflect.DeepEqual(spec.Metrics, defaultMetrics(false)) {
		t.Fatalf("default metrics wrong: %v", spec.Metrics)
	}
	faulted := mustParse(t, minimal()+"adversary uniform k=1\n")
	if faulted.Adversaries[0].Schedule.Kind != fault.KindAtStart {
		t.Fatalf("default schedule wrong: %+v", faulted.Adversaries[0])
	}
	if !reflect.DeepEqual(faulted.Metrics, defaultMetrics(true)) {
		t.Fatalf("default fault metrics wrong: %v", faulted.Metrics)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	t.Parallel()
	sources := []string{
		minimal(),
		"campaign full # trailing comment\n" +
			"seed 7\ntrials 2\nmax-steps 5000\nsuffix-rounds 8\n" +
			"key {graph}|{protocol}|{daemon}|{n}\n" +
			"graph cycle 5..9/2\ngraph regular 8 d=3\ngraph gnp 10 p=0.35\n" +
			"protocol coloring mis\ndaemon synchronous central-rr\n" +
			"metrics silent rounds k-efficiency\n",
		"campaign faulty\ngraph torus 9\nprotocol matching\n" +
			"adversary cluster k=1,2 inject=on-silence:3\n" +
			"adversary crash k=4 inject=every:100:2\n",
	}
	for _, src := range sources {
		spec := mustParse(t, src)
		canon := spec.String()
		spec2 := mustParse(t, canon)
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("round-trip spec mismatch:\n%+v\n%+v", spec, spec2)
		}
		if canon2 := spec2.String(); canon != canon2 {
			t.Fatalf("String not a fixed point:\n%q\n%q", canon, canon2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := []struct{ src, frag string }{
		{"", "missing `campaign"},
		{"graph path 4\ncampaign t\nprotocol coloring\n", "first directive"},
		{"campaign t\ncampaign u\ngraph path 4\nprotocol coloring\n", "duplicate"},
		{"campaign bad name here\n", "exactly one name"},
		{"campaign t\nwibble 3\n", "unknown directive"},
		{"campaign t\nseed 1\nseed 2\ngraph path 4\nprotocol coloring\n", "duplicate"},
		{"campaign t\ntrials 0\ngraph path 4\nprotocol coloring\n", "at least 1"},
		{"campaign t\ngraph path 4\n", "at least one `protocol`"},
		{"campaign t\nprotocol coloring\n", "at least one `graph`"},
		{"campaign t\ngraph warp 4\nprotocol coloring\n", "unknown graph family"},
		{"campaign t\ngraph path 0\nprotocol coloring\n", "bad sizes"},
		{"campaign t\ngraph path 9..5\nprotocol coloring\n", "bad sizes"},
		{"campaign t\ngraph path 4/2\nprotocol coloring\n", "bad sizes"},
		{"campaign t\ngraph path 4 d=3\nprotocol coloring\n", "d= only applies"},
		{"campaign t\ngraph path 4 p=0.5\nprotocol coloring\n", "p= only applies"},
		{"campaign t\ngraph regular 8 d=3 d=5\nprotocol coloring\n", "duplicate d="},
		{"campaign t\ngraph gnp 8 p=0.3 p=0.5\nprotocol coloring\n", "duplicate p="},
		{"campaign t\ngraph path 8\ngraph path 8\nprotocol coloring\n", "duplicate graph line"},
		{"campaign t\ngraph gnp 8 p=0\nprotocol coloring\n", "bad probability"},
		{"campaign t\ngraph path 4\nprotocol teleport\n", "unknown protocol"},
		{"campaign t\ngraph path 4\nprotocol coloring coloring\n", "duplicate protocol"},
		{"campaign t\ngraph path 4\nprotocol coloring\ndaemon lazy\n", "unknown daemon"},
		{"campaign t\ngraph path 4\nprotocol coloring\nadversary uniform k=1 inject=at-start:3\n", "at-start takes no arguments"},
		{"campaign t\ngraph path 4\nprotocol coloring\nmetrics vibes\n", "unknown metric"},
		{"campaign t\ngraph path 4\nprotocol coloring\nmetrics silent silent\n", "duplicate metric"},
		{"campaign t\ngraph path 4\nprotocol coloring\nmetrics max-radius\n", "requires an adversary"},
		{"campaign t\nsuffix-rounds 4\ngraph path 4\nprotocol coloring\nadversary uniform k=1\n", "suffix-rounds does not apply"},
		{"campaign t\nkey {bogus}\ngraph path 4\nprotocol coloring\n", "unknown placeholder"},
		{"campaign t\nkey {graph\ngraph path 4\nprotocol coloring\n", "unterminated"},
		{"campaign t\nkey {graph}|\x01x\ngraph path 4\nprotocol coloring\n", "non-printable"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Fatalf("Parse(%q) accepted, want error containing %q", c.src, c.frag)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("Parse(%q) error %q missing %q", c.src, err, c.frag)
		}
	}
	// Every error path of an adversary line, pinned to the full message.
	checkAxisErrors(t, []struct{ body, want string }{
		{"adversary gremlin k=1", `campaign: line 4: adversary: unknown adversary "gremlin" (known: [uniform comm crash cluster])`},
		{"adversary uniform", "campaign: line 4: adversary: want `adversary NAME k=K1,K2,... [inject=SCHEDULE]`"},
		{"adversary uniform k=1 k=2", "campaign: line 4: adversary: duplicate k= option"},
		{"adversary uniform k=0", `campaign: line 4: adversary: bad fault size "0"`},
		{"adversary uniform k=4097", `campaign: line 4: adversary: bad fault size "4097"`},
		{"adversary uniform k=1,1", "campaign: line 4: adversary: duplicate fault size 1"},
		{"adversary uniform k=" + kList(65), "campaign: line 4: adversary: more than 64 fault sizes"},
		{"adversary uniform k=1 inject=at-start inject=on-silence:2", "campaign: line 4: adversary: duplicate inject= option"},
		{"adversary uniform k=1 inject=never", `campaign: line 4: adversary: fault: unknown schedule "never" (want one of: at-start | at-step:T | every:T[:N] | on-silence[:N])`},
		{"adversary uniform k=1 speed=9", `campaign: line 4: adversary: unknown adversary option "speed=9" (want k=... or inject=...)`},
		{"adversary uniform inject=at-start", "campaign: line 4: adversary: missing k= fault sizes"},
		{strings.Repeat("adversary uniform k=1\n", 65), "campaign: line 68: adversary: more than 64 adversary lines"},
	})
}

// checkAxisErrors parses each body after a minimal three-line campaign
// head and requires exactly the wanted error text.
func checkAxisErrors(t *testing.T, cases []struct{ body, want string }) {
	t.Helper()
	for _, c := range cases {
		if _, err := Parse("campaign t\ngraph path 4\nprotocol coloring\n" + c.body + "\n"); err == nil || err.Error() != c.want {
			t.Fatalf("Parse(%.60q) error %v, want %q", c.body, err, c.want)
		}
	}
}

// kList renders the size list 1,2,...,n.
func kList(n int) string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(ks, ",")
}

func TestCompileCellExpansion(t *testing.T) {
	t.Parallel()
	spec := mustParse(t,
		"campaign grid\ntrials 1\ngraph path 4\ngraph cycle 5\nprotocol coloring mis\n"+
			"daemon random-subset synchronous\n")
	plan, err := Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 8 || plan.Faulted {
		t.Fatalf("want 8 plain cells, got %d (faulted=%v)", len(plan.Cells), plan.Faulted)
	}
	// Canonical plain keys use the registry's proto-cell format, and the
	// axis order is graph × protocol × daemon.
	if plan.Cells[0].Key != "path-4|coloring|random-subset|0" {
		t.Fatalf("canonical key wrong: %q", plan.Cells[0].Key)
	}
	if plan.Cells[1].Key != "path-4|coloring|synchronous|0" ||
		plan.Cells[2].Key != "path-4|mis|random-subset|0" ||
		plan.Cells[4].Key != "cycle-5|coloring|random-subset|0" {
		t.Fatalf("axis order wrong: %v", keysOf(plan))
	}
}

func TestCompileFaultExpansionAndTemplate(t *testing.T) {
	t.Parallel()
	spec := mustParse(t,
		"campaign f\ntrials 1\nkey {graph}~{protocol}~{adversary}.{k}.{count}\n"+
			"graph path 4\nprotocol coloring\n"+
			"adversary uniform k=1,2 inject=on-silence:3\nadversary crash k=1 inject=on-silence:3\n")
	plan, err := Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Faulted || len(plan.Cells) != 3 {
		t.Fatalf("want 3 fault cells, got %+v", keysOf(plan))
	}
	want := []string{
		"path-4~coloring~uniform.1.3",
		"path-4~coloring~uniform.2.3",
		"path-4~coloring~crash.1.3",
	}
	if !reflect.DeepEqual(keysOf(plan), want) {
		t.Fatalf("keys = %v, want %v", keysOf(plan), want)
	}
}

func TestCompileRejectsOversizedSweepBeforeBuilding(t *testing.T) {
	t.Parallel()
	// 1536 graph sizes × 8 protocols × 6 daemons = 73,728 cells: over
	// the limit, and the error must come from the cardinality precheck
	// (instant) rather than after building thousands of graphs.
	spec := mustParse(t,
		"campaign big\ngraph path 1..512\ngraph cycle 1..512\ngraph star 1..512\n"+
			"protocol coloring coloring-baseline mis mis-baseline matching matching-baseline bfstree frozen\n"+
			"daemon synchronous central-rr central-random random-subset enabled-biased laziest-fair\n")
	start := time.Now()
	_, err := Compile(spec, 1)
	if err == nil || !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("oversized sweep accepted: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("oversized-sweep rejection took %v; the precheck should be arithmetic", elapsed)
	}
}

func TestCompileDuplicateKeys(t *testing.T) {
	t.Parallel()
	// grid 15 and grid 16 both round to the 4x4 grid: the collision is
	// reported at the graph level, naming both source lines (a key-level
	// error would suggest widening the template, which cannot help when
	// the topologies are literally the same graph).
	spec := mustParse(t, "campaign dup\ngraph grid 15\ngraph grid 16\nprotocol coloring\n")
	_, err := Compile(spec, 1)
	if err == nil || !strings.Contains(err.Error(), "both build") {
		t.Fatalf("clamped duplicate graphs accepted: %v", err)
	}
	for _, frag := range []string{"grid 15", "grid 16", "grid-4x4"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("graph-collision error missing %q: %v", frag, err)
		}
	}
	// A key template that drops a varying axis makes distinct cells
	// share trial seeds: hard error at the key level.
	spec = mustParse(t, "campaign dup2\nkey {graph}\ngraph path 4\nprotocol coloring mis\n")
	if _, err := Compile(spec, 1); err == nil || !strings.Contains(err.Error(), "share key") {
		t.Fatalf("duplicate keys accepted: %v", err)
	}
	// Exact duplicate graph lines never reach Compile: strict parse error.
	if _, err := Parse("campaign d3\ngraph path 8\ngraph path 8\nprotocol coloring\n"); err == nil ||
		!strings.Contains(err.Error(), "duplicate graph line") {
		t.Fatalf("duplicate graph line accepted: %v", err)
	}
}

func TestRunRecordsAndJSONL(t *testing.T) {
	t.Parallel()
	spec := mustParse(t, "campaign j\ntrials 2\nmax-steps 100000\ngraph path 4\nprotocol coloring\nmetrics silent legitimate rounds moves\n")
	plan, err := Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := out.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d:\n%s", len(lines), sb.String())
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, field := range []string{"cell", "key", "trial", "silent", "legitimate", "rounds", "moves"} {
			if _, ok := obj[field]; !ok {
				t.Fatalf("line %d missing %q: %s", i, field, line)
			}
		}
		if obj["silent"] != true || obj["legitimate"] != true {
			t.Fatalf("coloring on path-4 should converge legitimately: %s", line)
		}
	}
	// The summary table carries one row per cell: cell, key, realized
	// trials, then the metric columns (numeric metrics grow a ±ci95
	// half-width column).
	tab := out.Table()
	if len(tab.Rows) != 1 || tab.Rows[0][2] != "2" || tab.Rows[0][3] != "2/2" {
		t.Fatalf("table aggregation wrong: %+v", tab.Rows)
	}
}

// TestFrozenFamilyObservesIllegitimateSilence exercises the frozen
// protocol family: the ♦-1-stable coloring freezes into silence, and at
// least some silent configurations violate the coloring predicate —
// the impossibility result observed through campaign metrics.
func TestFrozenFamilyObservesIllegitimateSilence(t *testing.T) {
	t.Parallel()
	spec := mustParse(t, "campaign frz\ntrials 6\nmax-steps 50000\ngraph cycle 6\nprotocol frozen mis-frozen matching-frozen\nmetrics silent legitimate\n")
	plan, err := Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		silent, legit := 0, 0
		for _, rec := range res.Records {
			if rec.Silent {
				silent++
			}
			if rec.Legitimate {
				legit++
			}
		}
		if silent == 0 {
			t.Fatalf("%s never froze into silence", plan.Cells[i].Protocol)
		}
		if legit == silent {
			t.Logf("%s: all frozen runs happened to be legitimate at this seed (acceptable, just unlucky)", plan.Cells[i].Protocol)
		}
	}
}

func keysOf(p *Plan) []string {
	out := make([]string, len(p.Cells))
	for i := range p.Cells {
		out[i] = p.Cells[i].Key
	}
	return out
}
