package campaign

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

// executed is what one Execute wrote: the JSONL and the canonical log.
type executed struct{ jsonl, events string }

// execute compiles src and runs it under ctx with a ReplaySink teed
// into opts.Observer.
func execute(t *testing.T, ctx context.Context, src string, opts RunOptions) (executed, *Outcome, error) {
	t.Helper()
	plan, err := Compile(mustParse(t, src), 2)
	if err != nil {
		t.Fatal(err)
	}
	replay := obs.NewReplaySink()
	opts.Observer = obs.Tee(replay, opts.Observer)
	out, err := Execute(ctx, plan, opts)
	if err != nil {
		return executed{}, nil, err
	}
	var jsonl, events bytes.Buffer
	if err := out.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteCanonical(&events); err != nil {
		t.Fatal(err)
	}
	return executed{jsonl.String(), events.String()}, out, nil
}

// cellGate signals on the trigger-th event of a kind and blocks the
// worker that emitted it until released. One worker only: Observe does
// no locking.
type cellGate struct {
	kind    obs.Kind
	trigger int
	hit     chan struct{}
	release chan struct{}
	count   int
}

func newCellGate(kind obs.Kind, trigger int) *cellGate {
	return &cellGate{kind: kind, trigger: trigger, hit: make(chan struct{}), release: make(chan struct{})}
}

func (g *cellGate) Observe(e obs.Event) {
	if e.Kind != g.kind {
		return
	}
	g.count++
	if g.count == g.trigger {
		close(g.hit)
		<-g.release
	}
}

// cancelAt runs src on one worker over cache and cancels the context
// while the worker is blocked inside the trigger-th event of kind.
func cancelAt(t *testing.T, src string, cache Backend, kind obs.Kind, trigger int) (executed, *Outcome, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := newCellGate(kind, trigger)
	go func() {
		<-gate.hit
		cancel()
		close(gate.release)
	}()
	return execute(t, ctx, src, RunOptions{Workers: 1, Cache: cache, Observer: gate})
}

// TestExecuteDrainAndResume is the drain contract of the one executor,
// which sscampaign's Ctrl-C and sscampaignd's SIGTERM both rest on: a
// cancel lets the cell in flight finish and persist, starts no other,
// and a later run over the same backend resumes to the bytes of a run
// nobody interrupted.
func TestExecuteDrainAndResume(t *testing.T) {
	t.Parallel()
	want, whole, err := execute(t, context.Background(), testCampaignSrc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(whole.Plan.Cells)
	cache := NewMemBackend()

	// Cancel inside the second cell-start: the worker must finish that
	// cell, store it, and not start a third.
	_, _, err = cancelAt(t, testCampaignSrc, cache, obs.KindCellStart, 2)
	if !errors.Is(err, ErrDrained) || !strings.Contains(err.Error(), "6 of 8 cells remain") {
		t.Fatalf("drained Execute returned %v, want ErrDrained with 6 of 8 cells remaining", err)
	}
	if entries, _, _ := cache.Stats(); entries != 2 {
		t.Fatalf("cache holds %d cells after the drain, want the 2 that started", entries)
	}

	resumed, out, err := execute(t, context.Background(), testCampaignSrc, RunOptions{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != want {
		t.Fatal("resumed run differs from the uninterrupted run")
	}
	if out.CacheHits != 2 || out.CacheMisses != cells-2 {
		t.Fatalf("resume: %d hits, %d misses, want 2 and %d", out.CacheHits, out.CacheMisses, cells-2)
	}
}

// TestCancelAfterLastCellStartedIsNotADrain: a cancel that finds no cell
// left to start has nothing to drain. The output is whole and the error
// nil, here with the cancel landing inside the last cell's cell-finish.
func TestCancelAfterLastCellStartedIsNotADrain(t *testing.T) {
	t.Parallel()
	want, whole, err := execute(t, context.Background(), testCampaignSrc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(whole.Plan.Cells)
	cache := NewMemBackend()
	got, out, err := cancelAt(t, testCampaignSrc, cache, obs.KindCellFinish, cells)
	if err != nil {
		t.Fatalf("cancel after the last cell: %v, want a whole run", err)
	}
	if got != want || out.CacheMisses != cells {
		t.Fatalf("cancel after the last cell: bytes equal %v, %d misses, want every cell computed", got == want, out.CacheMisses)
	}
	if entries, _, _ := cache.Stats(); entries != cells {
		t.Fatalf("cache holds %d of %d cells", entries, cells)
	}
}

// TestShardDrainCountsOwnedCells: under -shard the drain error counts the
// shard's cells, not the campaign's.
func TestShardDrainCountsOwnedCells(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := execute(t, ctx, testCampaignSrc, RunOptions{Shard: 1, Shards: 2})
	if !errors.Is(err, ErrDrained) || !strings.Contains(err.Error(), "4 of 4 cells remain") {
		t.Fatalf("shard 1/2 run under a canceled context: %v, want ErrDrained with 4 of 4", err)
	}
}
