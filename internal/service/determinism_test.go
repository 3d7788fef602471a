package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// faultCampaignSrc exercises the injected-trial path (adversary axis).
const faultCampaignSrc = `campaign svc-fault
seed 2009
trials 3
max-steps 100000
graph path 4..8/2
graph cycle 5
protocol coloring mis
adversary uniform k=1 inject=on-silence:2
metrics silent legitimate rounds moves injections recovered max-radius
`

// plainCampaignSrc exercises the plain-cell path.
const plainCampaignSrc = `campaign svc-plain
seed 2009
trials 5
max-steps 100000
graph path 4..8/2
graph cycle 5
protocol coloring mis
metrics silent legitimate rounds moves total-reads total-bits
`

// artifacts is one run's four deterministic outputs.
type artifacts struct{ jsonl, events, table, csv string }

// cliArtifacts produces the reference bytes the CLI path
// (campaign.Plan.Run) emits for a campaign.
func cliArtifacts(t *testing.T, src string) artifacts {
	t.Helper()
	plan := compilePlan(t, src)
	replay := obs.NewReplaySink()
	out, err := plan.Run(campaign.RunOptions{Observer: replay})
	if err != nil {
		t.Fatal(err)
	}
	return renderArtifacts(t, out, replay)
}

func compilePlan(t *testing.T, src string) *campaign.Plan {
	t.Helper()
	spec, err := campaign.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func renderArtifacts(t *testing.T, out *campaign.Outcome, replay *obs.ReplaySink) artifacts {
	t.Helper()
	var jsonl, events, csv bytes.Buffer
	if err := out.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteCanonical(&events); err != nil {
		t.Fatal(err)
	}
	table := out.Table()
	if err := table.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	return artifacts{jsonl.String(), events.String(), table.String(), csv.String()}
}

// servedArtifacts reads a finished run's four outputs.
func servedArtifacts(t *testing.T, r *Run) artifacts {
	t.Helper()
	var got [len(outputKinds)]string
	for i, kind := range outputKinds {
		data, err := r.Output(context.Background(), kind)
		if err != nil {
			t.Fatalf("%s %s: %v", r.ID, kind, err)
		}
		got[i] = string(data)
	}
	return artifacts{got[0], got[1], got[2], got[3]}
}

// execArtifacts runs a campaign through the service executor.
func execArtifacts(t *testing.T, src string, opts ExecOptions) (artifacts, *campaign.Outcome) {
	t.Helper()
	plan := compilePlan(t, src)
	replay := obs.NewReplaySink()
	opts.Observer = obs.Tee(replay, opts.Observer)
	out, err := Execute(context.Background(), plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return renderArtifacts(t, out, replay), out
}

// TestExecuteDeterminism is the tentpole acceptance test: for worker
// counts {1, 4}, adversarial steal schedules, and cold vs warm cache,
// the served run's JSONL, summary table and canonical event log are
// byte-identical to the CLI run at the same seed.
func TestExecuteDeterminism(t *testing.T) {
	t.Parallel()
	for _, src := range []string{faultCampaignSrc, plainCampaignSrc} {
		src := src
		name := strings.Fields(src)[1]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := cliArtifacts(t, src)
			policies := map[string]StealPolicy{
				"largest": nil, "smallest": stealSmallest, "rotate": rotatePolicy(),
			}
			for _, workers := range []int{1, 4} {
				for pname, steal := range policies {
					cache := campaign.NewMemBackend()
					opts := ExecOptions{Workers: workers, Steal: steal, Cache: cache}
					cold, outCold := execArtifacts(t, src, opts)
					if cold != want {
						t.Fatalf("workers=%d steal=%s cold: artifacts differ from CLI run\n%s",
							workers, pname, diffHint(want.jsonl, cold.jsonl))
					}
					if outCold.CacheHits != 0 || outCold.CacheMisses != len(outCold.Plan.Cells) {
						t.Fatalf("cold run: %d hits, %d misses", outCold.CacheHits, outCold.CacheMisses)
					}
					warm, outWarm := execArtifacts(t, src, opts)
					if warm != want {
						t.Fatalf("workers=%d steal=%s warm: artifacts differ from CLI run", workers, pname)
					}
					if outWarm.CacheHits != len(outWarm.Plan.Cells) {
						t.Fatalf("warm run: only %d of %d cells hit", outWarm.CacheHits, len(outWarm.Plan.Cells))
					}
					// path 4, 6, 8 and cycle 5: built for the cells that
					// missed, never for cells that hit.
					if cold, warm := outCold.Plan.GraphsBuilt(), outWarm.Plan.GraphsBuilt(); cold != 4 || warm != 0 {
						t.Fatalf("graphs built: %d cold, %d warm, want 4 and 0", cold, warm)
					}
				}
			}
			// No cache at all is the same bytes too.
			noCache, _ := execArtifacts(t, src, ExecOptions{Workers: 3})
			if noCache != want {
				t.Fatal("cache-less Execute differs from CLI run")
			}
		})
	}
}

func diffHint(want, got string) string {
	if want == got {
		return "(jsonl equal; table or events differ)"
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "first differing jsonl line " + w[i] + " vs " + g[i]
		}
	}
	return "jsonl lengths differ"
}

// TestExecuteDrainAndResume is the graceful-shutdown contract at the
// executor level: a drain (context cancel) lets in-flight cells finish
// and persist, already-complete cells stay cached, and a fresh executor
// over the same backend resumes to byte-identical final output.
func TestExecuteDrainAndResume(t *testing.T) {
	t.Parallel()
	want := cliArtifacts(t, faultCampaignSrc)
	cache := campaign.NewMemBackend()

	// Gate: block the (single) worker inside its second cell-start
	// event, then cancel — the worker must finish that cell, persist it,
	// and exit without starting a third.
	ctx, cancel := context.WithCancel(context.Background())
	gate := &cellGate{trigger: 2, hit: make(chan struct{}), release: make(chan struct{})}
	plan := compilePlan(t, faultCampaignSrc)
	errCh := make(chan error, 1)
	go func() {
		_, err := Execute(ctx, plan, ExecOptions{Workers: 1, Cache: cache, Observer: gate})
		errCh <- err
	}()
	<-gate.hit
	cancel()
	close(gate.release)
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "drained") {
		t.Fatalf("drained Execute returned %v, want ErrDrained", err)
	}
	// Exactly the two started cells persisted: the drain neither loses
	// finished work nor starts new work.
	entries, _, err := cache.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 2 {
		t.Fatalf("cache holds %d cells after drain, want 2", entries)
	}

	// Resume: a fresh plan over the same backend completes and matches
	// the CLI bytes; the two drained cells are hits.
	resumed, out := execArtifacts(t, faultCampaignSrc, ExecOptions{Workers: 4, Cache: cache})
	if resumed != want {
		t.Fatal("resumed run differs from the CLI run")
	}
	if out.CacheHits != 2 || out.CacheMisses != len(out.Plan.Cells)-2 {
		t.Fatalf("resume: %d hits, %d misses, want 2 and %d", out.CacheHits, out.CacheMisses, len(out.Plan.Cells)-2)
	}
}

// cellGate signals on the trigger-th cell-start and blocks that worker
// until released.
type cellGate struct {
	trigger int
	hit     chan struct{}
	release chan struct{}
	count   int
}

func (g *cellGate) Observe(e obs.Event) {
	if e.Kind != obs.KindCellStart {
		return
	}
	// Single worker: Observe runs on one goroutine, no locking needed.
	g.count++
	if g.count == g.trigger {
		close(g.hit)
		<-g.release
	}
}
