package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// The determinism suite pins the campaign executor's three output
// contracts: for a fixed campaign file the JSONL bytes (and the summary
// table) are identical (1) across -parallelism values, (2) across a
// shard partition — concatenating the shard outputs in shard order
// reproduces the unsharded output — and (3) across cold-cache vs
// warm-cache (resume) runs.

// testCampaignSrc is a small fault campaign exercising both the graph
// range axis and mid-run injection (no snapshot warm-up, so cells stay
// cheap enough for -short).
const testCampaignSrc = `campaign det
seed 2009
trials 3
max-steps 100000
graph path 4..8/2
graph cycle 5
protocol coloring mis
adversary uniform k=1 inject=on-silence:2
metrics silent legitimate rounds moves injections recovered max-radius
`

// renderJSONL compiles and runs the campaign, returning the JSONL bytes
// and the outcome.
func renderJSONL(t *testing.T, src string, parallelism int, opts RunOptions) (string, *Outcome) {
	t.Helper()
	spec := mustParse(t, src)
	plan, err := Compile(spec, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := out.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String(), out
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	one, outOne := renderJSONL(t, testCampaignSrc, 1, RunOptions{})
	four, _ := renderJSONL(t, testCampaignSrc, 4, RunOptions{})
	if one != four {
		t.Fatalf("JSONL differs between parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", one, four)
	}
	if tab1, tab4 := outOne.Table().String(), mustTable(t, testCampaignSrc, 4); tab1 != tab4 {
		t.Fatalf("table differs between parallelism 1 and 4:\n%s\n%s", tab1, tab4)
	}
	if len(outOne.Plan.Cells) != 8 {
		t.Fatalf("expected 8 cells (4 graphs × 2 protocols), got %d", len(outOne.Plan.Cells))
	}
}

func mustTable(t *testing.T, src string, parallelism int) string {
	t.Helper()
	_, out := renderJSONL(t, src, parallelism, RunOptions{})
	return out.Table().String()
}

func TestDeterminismAcrossShards(t *testing.T) {
	t.Parallel()
	full, _ := renderJSONL(t, testCampaignSrc, 2, RunOptions{})
	for _, shards := range []int{2, 3} {
		var merged strings.Builder
		total := 0
		for shard := 0; shard < shards; shard++ {
			part, out := renderJSONL(t, testCampaignSrc, 2, RunOptions{Shard: shard, Shards: shards})
			merged.WriteString(part)
			total += len(out.Results)
		}
		if merged.String() != full {
			t.Fatalf("concatenated %d-shard output differs from the unsharded output", shards)
		}
		if total != 8 {
			t.Fatalf("%d shards own %d cells in total, want 8", shards, total)
		}
	}
	// Out-of-range shards are hard errors.
	spec := mustParse(t, testCampaignSrc)
	plan, err := Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(RunOptions{Shard: 2, Shards: 2}); err == nil {
		t.Fatal("shard 2/2 accepted")
	}
	// Astronomical shard counts must error cleanly, never overflow into
	// a negative owned range (makeslice panic).
	if _, err := plan.Run(RunOptions{Shard: 1<<30 - 2, Shards: 1 << 30}); err == nil {
		t.Fatal("oversized shard count accepted")
	}
}

// plainCampaignSrc has no adversary axis, so every cell compiles to the
// plain-protocol form.
const plainCampaignSrc = `campaign det-plain
seed 2009
trials 5
max-steps 100000
graph path 4..8/2
graph cycle 5
protocol coloring mis
metrics silent legitimate rounds moves total-reads total-bits
`

// TestInterruptedRunKeepsFinishedCells: a run that fails part-way has
// already stored every cell it finished, so the next run on the same
// backend serves them as hits and its output equals an uninterrupted
// run's. The last cell is made to fail; with one worker every other
// cell has finished by then.
func TestInterruptedRunKeepsFinishedCells(t *testing.T) {
	t.Parallel()
	errCell := errors.New("cell failed")
	for _, src := range []string{plainCampaignSrc, testCampaignSrc} {
		want, whole := renderJSONL(t, src, 1, RunOptions{})
		finished := len(whole.Plan.Cells) - 1
		be := NewMemBackend()

		plan, err := Compile(mustParse(t, src), 1)
		if err != nil {
			t.Fatal(err)
		}
		// Materialize leaves a cell that already has its closure alone.
		plan.cells[finished].Run = func(*core.Runner, int, uint64, *core.FaultResult) error { return errCell }
		if _, err := plan.Run(RunOptions{Cache: be}); !errors.Is(err, errCell) {
			t.Fatalf("interrupted run returned %v, want the cell's error", err)
		}
		if n, _, _ := be.Stats(); n != finished {
			t.Fatalf("backend holds %d cells after the failed run, want %d", n, finished)
		}

		got, resumed := renderJSONL(t, src, 1, RunOptions{Cache: be})
		if resumed.CacheHits != finished || resumed.CacheMisses != 1 {
			t.Fatalf("resume: hits=%d misses=%d, want %d and 1", resumed.CacheHits, resumed.CacheMisses, finished)
		}
		if got != want {
			t.Fatalf("resumed JSONL differs from an uninterrupted run:\n--- whole ---\n%s\n--- resumed ---\n%s", want, got)
		}
	}
}

// panicOnFinish panics inside the trial-finish event of one cell.
type panicOnFinish struct{ key string }

func (p panicOnFinish) Observe(e obs.Event) {
	if e.Kind == obs.KindTrialFinish && e.Key == p.key {
		panic("observer broke")
	}
}

// TestPanickingCellIsAnError: a panic inside a cell — here an observer
// that panics on the cell's trial-finish, on the plain and the injected
// trial path — used to abort the process. Plan.Run now returns an error
// naming the cell, stores nothing for it, and a later run over the same
// backend computes it and renders the bytes of an undisturbed run.
func TestPanickingCellIsAnError(t *testing.T) {
	t.Parallel()
	for _, src := range []string{plainCampaignSrc, testCampaignSrc} {
		want, whole := renderJSONL(t, src, 1, RunOptions{})
		cells := len(whole.Plan.Cells)
		key := whole.Plan.Cells[cells-1].Key
		for _, parallelism := range []int{1, 4} {
			be := NewMemBackend()
			plan, err := Compile(mustParse(t, src), parallelism)
			if err != nil {
				t.Fatal(err)
			}
			_, err = plan.Run(RunOptions{Cache: be, Observer: panicOnFinish{key}})
			if wantErr := fmt.Sprintf("campaign: cell %q panicked: observer broke", key); err == nil || err.Error() != wantErr {
				t.Fatalf("parallelism %d: run over a panicking cell returned %v, want %s", parallelism, err, wantErr)
			}
			if n, _, _ := be.Stats(); n >= cells || (parallelism == 1 && n != cells-1) {
				t.Fatalf("parallelism %d: backend holds %d of %d cells after the panic in the last one", parallelism, n, cells)
			}
			got, resumed := renderJSONL(t, src, parallelism, RunOptions{Cache: be})
			if resumed.CacheMisses == 0 || got != want {
				t.Fatalf("parallelism %d: run after the panic: %d misses, bytes equal %v", parallelism, resumed.CacheMisses, got == want)
			}
		}
	}
}

func TestDeterminismAcrossCacheResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cold, outCold := renderJSONL(t, testCampaignSrc, 4, RunOptions{Cache: NewDirBackend(dir)})
	if outCold.CacheHits != 0 || outCold.CacheMisses != len(outCold.Plan.Cells) {
		t.Fatalf("cold run: hits=%d misses=%d", outCold.CacheHits, outCold.CacheMisses)
	}
	warm, outWarm := renderJSONL(t, testCampaignSrc, 4, RunOptions{Cache: NewDirBackend(dir)})
	if outWarm.CacheHits != len(outWarm.Plan.Cells) || outWarm.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d", outWarm.CacheHits, outWarm.CacheMisses)
	}
	if cold != warm {
		t.Fatalf("JSONL differs between cold and warm cache:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	for i := range outWarm.Results {
		if !outWarm.Results[i].FromCache {
			t.Fatalf("warm cell %d not served from cache", i)
		}
	}
	if n, _, err := CacheEntries(dir); err != nil || n != len(outCold.Plan.Cells) {
		t.Fatalf("cache holds %d entries (err %v), want %d", n, err, len(outCold.Plan.Cells))
	}
}

func TestCacheResumesInterruptedAndGrownCampaigns(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// "Interrupted" run: shard 0/2 completes, the rest never ran.
	_, shard0 := renderJSONL(t, testCampaignSrc, 2, RunOptions{Shard: 0, Shards: 2, Cache: NewDirBackend(dir)})
	// Resume as an unsharded run: only the missing cells recompute.
	_, resumed := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})
	if resumed.CacheHits != len(shard0.Results) ||
		resumed.CacheMisses != len(resumed.Plan.Cells)-len(shard0.Results) {
		t.Fatalf("resume: hits=%d misses=%d (shard0 owned %d of %d)",
			resumed.CacheHits, resumed.CacheMisses, len(shard0.Results), len(resumed.Plan.Cells))
	}
	// Widened sweep: adding a fault size reuses every already-computed
	// cell and computes only the new ones.
	grown := strings.Replace(testCampaignSrc, "k=1", "k=1,2", 1)
	_, g := renderJSONL(t, grown, 2, RunOptions{Cache: NewDirBackend(dir)})
	if g.CacheHits != len(resumed.Plan.Cells) || g.CacheMisses != len(g.Plan.Cells)-len(resumed.Plan.Cells) {
		t.Fatalf("grown sweep: hits=%d misses=%d (had %d, now %d cells)",
			g.CacheHits, g.CacheMisses, len(resumed.Plan.Cells), len(g.Plan.Cells))
	}
}

// TestWarmCacheSkipsSnapshotWarmups pins the lazy-snapshot contract: a
// fully-cached resume of an at-start campaign must not re-run the
// silent-snapshot warm-up trials (they are pure overhead when every
// owned cell is a hit), and lazy warm-ups must not change any output
// byte relative to the cold run.
func TestWarmCacheSkipsSnapshotWarmups(t *testing.T) {
	t.Parallel()
	src := "campaign snap\ntrials 2\nmax-steps 100000\ngraph path 6\nprotocol coloring\nadversary uniform k=1 inject=at-start\n"
	dir := t.TempDir()
	cold, _ := renderJSONL(t, src, 2, RunOptions{Cache: NewDirBackend(dir)})

	spec := mustParse(t, src)
	plan, err := Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells[0].snapshot != nil {
		t.Fatal("Compile eagerly computed a snapshot")
	}
	out, err := plan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHits != len(plan.Cells) {
		t.Fatalf("warm run not fully cached: hits=%d", out.CacheHits)
	}
	if plan.Cells[0].snapshot != nil {
		t.Fatal("fully-cached run still computed the snapshot warm-up")
	}
	if len(plan.systems) != 0 {
		t.Fatal("fully-cached run still built protocol systems")
	}
	var sb strings.Builder
	if err := out.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != cold {
		t.Fatal("warm-cache output differs from cold-run output")
	}
}

func TestCacheFingerprintInvalidation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	_, first := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})
	// A different seed must miss everywhere (same keys, different
	// fingerprints) — never serve another campaign's results.
	reseeded := strings.Replace(testCampaignSrc, "seed 2009", "seed 2010", 1)
	_, second := renderJSONL(t, reseeded, 2, RunOptions{Cache: NewDirBackend(dir)})
	if second.CacheHits != 0 || second.CacheMisses != len(second.Plan.Cells) {
		t.Fatalf("reseeded run: hits=%d misses=%d", second.CacheHits, second.CacheMisses)
	}
	// Corrupted cache files degrade to misses, not to wrong results.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir unreadable: %v", err)
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, third := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})
	if third.CacheHits != 0 || third.CacheMisses != len(third.Plan.Cells) {
		t.Fatalf("corrupted entries did not degrade to misses: hits=%d misses=%d", third.CacheHits, third.CacheMisses)
	}
	_ = first
}
