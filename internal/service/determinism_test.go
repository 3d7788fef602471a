package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

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

// cliArtifacts produces the reference bytes: what Plan.Run, and so the
// CLI, emits for a campaign at its compiled parallelism.
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

// execArtifacts runs a campaign through Execute under opts.
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

// TestExecuteDeterminism: at workers {1, 3, 4}, cold, warm and without a
// cache, the executor's JSONL, summary table, CSV and canonical event
// log are the reference run's bytes; a cold run builds every graph and
// a warm one none.
func TestExecuteDeterminism(t *testing.T) {
	t.Parallel()
	for _, src := range []string{faultCampaignSrc, plainCampaignSrc} {
		src := src
		name := strings.Fields(src)[1]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := cliArtifacts(t, src)
			for _, workers := range []int{1, 3, 4} {
				opts := ExecOptions{Workers: workers, Cache: campaign.NewMemBackend()}
				cold, outCold := execArtifacts(t, src, opts)
				if cold != want {
					t.Fatalf("workers=%d cold: artifacts differ from the reference run\n%s",
						workers, diffHint(want.jsonl, cold.jsonl))
				}
				if outCold.CacheHits != 0 || outCold.CacheMisses != len(outCold.Plan.Cells) {
					t.Fatalf("cold run: %d hits, %d misses", outCold.CacheHits, outCold.CacheMisses)
				}
				warm, outWarm := execArtifacts(t, src, opts)
				if warm != want {
					t.Fatalf("workers=%d warm: artifacts differ from the reference run", workers)
				}
				if outWarm.CacheHits != len(outWarm.Plan.Cells) {
					t.Fatalf("warm run: only %d of %d cells hit", outWarm.CacheHits, len(outWarm.Plan.Cells))
				}
				// path 4, 6, 8 and cycle 5: built for the cells that
				// missed, never for cells that hit.
				if cold, warm := outCold.GraphsBuilt, outWarm.GraphsBuilt; cold != 4 || warm != 0 {
					t.Fatalf("graphs built: %d cold, %d warm, want 4 and 0", cold, warm)
				}
				if noCache, _ := execArtifacts(t, src, ExecOptions{Workers: workers}); noCache != want {
					t.Fatalf("workers=%d: cache-less run differs from the reference run", workers)
				}
			}
		})
	}
}

// stallEveryThird holds every third cell's cell-start for a moment, so
// cells finish in an order that is not the order they were claimed in.
type stallEveryThird struct{}

func (stallEveryThird) Observe(e obs.Event) {
	if e.Kind == obs.KindCellStart && e.Cell%3 == 0 {
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCompletionOrderCannotPerturbBytes: four workers whose cells finish
// out of claim order produce the artifacts of one worker. Each cell's
// records land in the cell's own slot and the canonical log orders by
// cell, so the schedule has nothing to perturb.
func TestCompletionOrderCannotPerturbBytes(t *testing.T) {
	t.Parallel()
	for _, src := range []string{faultCampaignSrc, plainCampaignSrc} {
		want, _ := execArtifacts(t, src, ExecOptions{Workers: 1})
		got, _ := execArtifacts(t, src, ExecOptions{Workers: 4, Observer: stallEveryThird{}})
		if got != want {
			t.Fatalf("%s: 4 stalled workers differ from 1 worker\n%s", strings.Fields(src)[1], diffHint(want.jsonl, got.jsonl))
		}
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
