package campaign

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestParseChurnAxis: churn lines parse with the adversary line's shape,
// default to at-start, round-trip through String, and make the campaign
// faulted (fault metrics become legal and default).
func TestParseChurnAxis(t *testing.T) {
	t.Parallel()
	spec := mustParse(t, minimal()+"churn crashjoin k=1,2 inject=on-silence:2\n")
	want := AxisSpec{Name: "crashjoin", Ks: []int{1, 2}, Schedule: fault.OnSilence(2)}
	if len(spec.Churns) != 1 || !reflect.DeepEqual(spec.Churns[0], want) {
		t.Fatalf("churn axis parsed wrong: %+v", spec.Churns)
	}
	if !reflect.DeepEqual(spec.Metrics, defaultMetrics(true)) {
		t.Fatalf("churn-only campaign did not get fault default metrics: %v", spec.Metrics)
	}
	if mustParse(t, minimal()+"churn rewire k=3\n").Churns[0].Schedule.Kind != fault.KindAtStart {
		t.Fatal("churn default schedule is not at-start")
	}
	// churn-events is selectable without an adversary axis.
	sel := mustParse(t, minimal()+"churn cut k=1\nmetrics silent churn-events\n")
	if !reflect.DeepEqual(sel.Metrics, []string{"silent", "churn-events"}) {
		t.Fatalf("churn-events selection wrong: %v", sel.Metrics)
	}

	// Round trip: canonical form is a fixed point, churn lines included.
	src := "campaign rt\ngraph torus 9\nprotocol coloring\n" +
		"adversary uniform k=1 inject=on-silence:2\n" +
		"churn rewire k=2 inject=on-silence:2\nchurn cut k=1,3 inject=every:50:2\n"
	spec = mustParse(t, src)
	canon := spec.String()
	spec2 := mustParse(t, canon)
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("round-trip spec mismatch:\n%+v\n%+v", spec, spec2)
	}
	if canon2 := spec2.String(); canon != canon2 {
		t.Fatalf("String not a fixed point:\n%q\n%q", canon, canon2)
	}
}

// TestParseChurnErrors: churn-line rejections carry actionable messages,
// and the unknown-directive error enumerates every directive.
func TestParseChurnErrors(t *testing.T) {
	t.Parallel()
	// Every error path of a churn line, pinned to the full message.
	checkAxisErrors(t, []struct{ body, want string }{
		{"churn meteor k=1", `campaign: line 4: churn: unknown churn shape "meteor" (known: [rewire cut crashjoin])`},
		{"churn rewire", "campaign: line 4: churn: want `churn NAME k=K1,K2,... [inject=SCHEDULE]`"},
		{"churn rewire k=1 k=2", "campaign: line 4: churn: duplicate k= option"},
		{"churn rewire k=0", `campaign: line 4: churn: bad churn size "0"`},
		{"churn rewire k=4097", `campaign: line 4: churn: bad churn size "4097"`},
		{"churn rewire k=1,1", "campaign: line 4: churn: duplicate churn size 1"},
		{"churn rewire k=" + kList(65), "campaign: line 4: churn: more than 64 churn sizes"},
		{"churn rewire k=1 inject=at-start inject=on-silence:2", "campaign: line 4: churn: duplicate inject= option"},
		{"churn rewire k=1 inject=never", `campaign: line 4: churn: fault: unknown schedule "never" (want one of: at-start | at-step:T | every:T[:N] | on-silence[:N])`},
		{"churn rewire k=1 speed=9", `campaign: line 4: churn: unknown churn option "speed=9" (want k=... or inject=...)`},
		{"churn rewire inject=at-start", "campaign: line 4: churn: missing k= churn sizes"},
		{strings.Repeat("churn rewire k=1\n", 65), "campaign: line 68: churn: more than 64 churn lines"},
	})
	cases := []struct{ src, frag string }{
		{"campaign t\nsuffix-rounds 4\ngraph path 4\nprotocol coloring\nchurn rewire k=1\n", "suffix-rounds does not apply"},
		{"campaign t\nkey {churn-radius}\ngraph path 4\nprotocol coloring\n", "unknown placeholder"},
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
	// The unknown-directive error enumerates the full grammar.
	_, err := Parse("campaign t\nwibble 3\n")
	if err == nil {
		t.Fatal("unknown directive accepted")
	}
	for _, d := range directiveNames {
		if !strings.Contains(err.Error(), d) {
			t.Fatalf("unknown-directive error does not name %q: %v", d, err)
		}
	}
}

// TestCompileChurnExpansion: the churn axis is the innermost loop, the
// default key grows the churn coordinates exactly when the axis is
// present, and churn-only campaigns compile to faulted cells without an
// adversary.
func TestCompileChurnExpansion(t *testing.T) {
	t.Parallel()
	spec := mustParse(t,
		"campaign x\ntrials 1\ngraph path 4\nprotocol coloring\n"+
			"adversary uniform k=1,2 inject=on-silence:2\n"+
			"churn rewire k=2 inject=on-silence:2\nchurn crashjoin k=1,3 inject=on-silence:2\n")
	plan, err := Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Faulted || len(plan.Cells) != 6 {
		t.Fatalf("want 6 composed cells, got %d (faulted=%v)", len(plan.Cells), plan.Faulted)
	}
	want := []string{
		"path-4|coloring|random-subset|adv=uniform|k=1|inject=on-silence:2|churn=rewire|ck=2|cinject=on-silence:2",
		"path-4|coloring|random-subset|adv=uniform|k=1|inject=on-silence:2|churn=crashjoin|ck=1|cinject=on-silence:2",
		"path-4|coloring|random-subset|adv=uniform|k=1|inject=on-silence:2|churn=crashjoin|ck=3|cinject=on-silence:2",
		"path-4|coloring|random-subset|adv=uniform|k=2|inject=on-silence:2|churn=rewire|ck=2|cinject=on-silence:2",
		"path-4|coloring|random-subset|adv=uniform|k=2|inject=on-silence:2|churn=crashjoin|ck=1|cinject=on-silence:2",
		"path-4|coloring|random-subset|adv=uniform|k=2|inject=on-silence:2|churn=crashjoin|ck=3|cinject=on-silence:2",
	}
	if !reflect.DeepEqual(keysOf(plan), want) {
		t.Fatalf("composed keys = %v, want %v", keysOf(plan), want)
	}

	churnOnly := mustParse(t,
		"campaign co\ntrials 1\ngraph path 4\nprotocol coloring\nchurn cut k=1,2 inject=on-silence:2\n")
	plan, err = Compile(churnOnly, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Faulted || len(plan.Cells) != 2 {
		t.Fatalf("want 2 churn-only cells, got %d (faulted=%v)", len(plan.Cells), plan.Faulted)
	}
	if plan.Cells[0].Adversary != "" || plan.Cells[0].ChurnName != "cut" {
		t.Fatalf("churn-only cell wrong: %+v", plan.Cells[0])
	}
	if plan.Cells[0].Key != "path-4|coloring|random-subset|adv=none|k=0|inject=none|churn=cut|ck=1|cinject=on-silence:2" {
		t.Fatalf("churn-only default key wrong: %q", plan.Cells[0].Key)
	}
	// A campaign with no churn axis keeps the pre-churn default key (no
	// churn coordinates), so existing seed streams and caches hold.
	old := mustParse(t, "campaign o\ntrials 1\ngraph path 4\nprotocol coloring\nadversary uniform k=1 inject=on-silence:2\n")
	plan, err = Compile(old, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells[0].Key != "path-4|coloring|random-subset|adv=uniform|k=1|inject=on-silence:2" {
		t.Fatalf("churn-free default key changed: %q", plan.Cells[0].Key)
	}
}

// churnCampaignSrc is the determinism workload: composed state faults
// and topology churn over two shapes, with an even on-silence firing
// count so every trial ends recovered on the restored base topology.
const churnCampaignSrc = `campaign churn-det
trials 3
max-steps 200000
graph cycle 9
graph grid 9
protocol coloring
adversary uniform k=1 inject=on-silence:2
churn crashjoin k=1 inject=on-silence:2
churn cut k=2 inject=on-silence:2
metrics silent rounds injections recovered churn-events
`

// TestRunChurnCampaign: a churned campaign executes end to end; every
// trial fires its planned churn events, recovers, and reports them
// through the churn-events metric.
func TestRunChurnCampaign(t *testing.T) {
	t.Parallel()
	spec := mustParse(t, churnCampaignSrc)
	plan, err := Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("want 4 cells, got %d", len(out.Results))
	}
	for _, cr := range out.Results {
		for ti, rec := range cr.Records {
			if rec.ChurnEvents != 2 || rec.Injections != 2 {
				t.Fatalf("cell %q trial %d: churnEvents=%d injections=%d, want 2/2",
					cr.Cell.Key, ti, rec.ChurnEvents, rec.Injections)
			}
			if !rec.Silent || rec.Recovered != 2 {
				t.Fatalf("cell %q trial %d did not recover both episodes: %+v", cr.Cell.Key, ti, rec)
			}
		}
	}
	var sb strings.Builder
	if err := out.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"churn-events":2`) {
		t.Fatalf("JSONL missing churn-events column:\n%s", sb.String())
	}
}

// TestChurnDeterminism: churned campaigns keep the executor's output
// contracts — byte-identical JSONL across parallelism and across
// cold-cache vs warm-cache runs.
func TestChurnDeterminism(t *testing.T) {
	t.Parallel()
	one, _ := renderJSONL(t, churnCampaignSrc, 1, RunOptions{})
	four, _ := renderJSONL(t, churnCampaignSrc, 4, RunOptions{})
	if one != four {
		t.Fatalf("JSONL differs between parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", one, four)
	}
	dir := t.TempDir()
	cold, outCold := renderJSONL(t, churnCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})
	if outCold.CacheMisses != len(outCold.Plan.Cells) {
		t.Fatalf("cold run: misses=%d", outCold.CacheMisses)
	}
	warm, outWarm := renderJSONL(t, churnCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})
	if outWarm.CacheHits != len(outWarm.Plan.Cells) {
		t.Fatalf("warm run not fully cached: hits=%d", outWarm.CacheHits)
	}
	if cold != warm || cold != one {
		t.Fatal("churned campaign output differs across cache states or parallelism")
	}
}
