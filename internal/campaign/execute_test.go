package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// executed is what one Execute wrote: the JSONL and the canonical log.
type executed struct{ jsonl, events string }

// execute compiles src and runs it under ctx (see executePlan).
func execute(t *testing.T, ctx context.Context, src string, opts RunOptions) (executed, *Outcome, error) {
	t.Helper()
	plan, err := Compile(mustParse(t, src), 2)
	if err != nil {
		t.Fatal(err)
	}
	return executePlan(ctx, plan, opts)
}

// executePlan runs plan under ctx with a ReplaySink of its own teed into
// opts.Observer.
func executePlan(ctx context.Context, plan *Plan, opts RunOptions) (executed, *Outcome, error) {
	replay := obs.NewReplaySink()
	opts.Observer = obs.Tee(replay, opts.Observer)
	out, err := Execute(ctx, plan, opts)
	if err != nil {
		return executed{}, nil, err
	}
	var jsonl, events bytes.Buffer
	if err := out.WriteJSONL(&jsonl); err != nil {
		return executed{}, nil, err
	}
	if err := replay.WriteCanonical(&events); err != nil {
		return executed{}, nil, err
	}
	return executed{jsonl.String(), events.String()}, out, nil
}

// TestConcurrentExecutesOfOnePlan: Execute only reads its plan, so
// executions of one plan may overlap. Each campaign is compiled once
// (fault.campaign has at-start cells, so its executions warm snapshots)
// and first run twice at the same time: cold over a backend of its own,
// and half warm over a backend one shard's run of another plan filled.
// Each run's JSONL and canonical event log must be the bytes of a
// sequential run of the same plan after them. Under -race this is the
// check that no execution writes the plan.
func TestConcurrentExecutesOfOnePlan(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, path := range []string{
		filepath.Join("..", "..", "examples", "campaigns", "quickstart.campaign"),
		filepath.Join("..", "..", "bench", "campaigns", "fault.campaign"),
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		plan, filler := compileSrc(t, string(src)), compileSrc(t, string(src))
		half := NewMemBackend()
		if _, err := Execute(ctx, filler, RunOptions{Shard: 0, Shards: 2, Cache: half}); err != nil {
			t.Fatal(err)
		}
		backends := []Backend{NewMemBackend(), half}
		got := make([]executed, len(backends))
		errs := make([]error, len(backends))
		var wg sync.WaitGroup
		for i, be := range backends {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _, errs[i] = executePlan(ctx, plan, RunOptions{Cache: be})
			}()
		}
		wg.Wait()
		want, _, err := executePlan(ctx, plan, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"cold", "half-warm"} {
			if errs[i] != nil {
				t.Fatalf("%s: %s run: %v", path, name, errs[i])
			}
			if got[i].jsonl != want.jsonl || got[i].events != want.events {
				t.Errorf("%s: concurrent %s run differs from the sequential run (JSONL equal %v, events equal %v)",
					path, name, got[i].jsonl == want.jsonl, got[i].events == want.events)
			}
		}
	}
}

// cellLog records every event it observes, diagnostics included, per
// cell: a cell's events arrive in order from one worker.
type cellLog struct {
	mu    sync.Mutex
	cells map[int][]obs.Event
}

func (l *cellLog) Observe(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cells == nil {
		l.cells = map[int][]obs.Event{}
	}
	l.cells[e.Cell] = append(l.cells[e.Cell], e)
}

// TestEachRunObservesItsOwnTrials: the trial closures an execution
// builds report to that execution's observer. Two runs of one plan at
// the same time, under observers of their own, each receive cell by cell
// exactly the events of a sequential run after them, diagnostics
// included, and each trial that ends silent has its silence diagnostic
// and each injection its injection diagnostic.
func TestEachRunObservesItsOwnTrials(t *testing.T) {
	t.Parallel()
	plan := compileSrc(t, testCampaignSrc)
	logs := []*cellLog{{}, {}, {}}
	var wg sync.WaitGroup
	for _, l := range logs[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Execute(context.Background(), plan, RunOptions{Observer: l}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, err := plan.Run(RunOptions{Observer: logs[2]}); err != nil {
		t.Fatal(err)
	}
	want := logs[2].cells
	for i, l := range logs[:2] {
		if !reflect.DeepEqual(l.cells, want) {
			t.Fatalf("concurrent run %d observed other events than the sequential run", i)
		}
	}
	for cell := range plan.Cells {
		silences, injections := 0, 0
		for _, e := range want[cell] {
			switch e.Kind {
			case obs.KindSilence:
				silences++
			case obs.KindInjection:
				injections++
			case obs.KindTrialFinish:
				if (e.Silent && silences == 0) || injections != e.Count {
					t.Fatalf("cell %d trial %d: %d silence and %d injection diagnostics for a trial that ended silent=%v after %d injections",
						cell, e.Trial, silences, injections, e.Silent, e.Count)
				}
				silences, injections = 0, 0
			}
		}
	}
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

// eventList records every event it observes, in order.
type eventList []obs.Event

func (l *eventList) Observe(e obs.Event) { *l = append(*l, e) }

// TestReplayIsAFullHitExecute: an outcome replays exactly the events,
// diagnostics included, that an Execute finding every cell in the cache
// emits, whether the outcome was computed or read from the cache.
func TestReplayIsAFullHitExecute(t *testing.T) {
	t.Parallel()
	fault, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaigns", "ex-fault.campaign"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{testCampaignSrc, string(fault)} {
		plan := compileSrc(t, src)
		be := NewMemBackend()
		cold, err := plan.Run(RunOptions{Cache: be})
		if err != nil {
			t.Fatal(err)
		}
		var want eventList
		warm, err := plan.Run(RunOptions{Cache: be, Observer: &want})
		if err != nil || warm.CacheHits != len(plan.Cells) {
			t.Fatalf("warm run: %v, %d of %d hits", err, warm.CacheHits, len(plan.Cells))
		}
		for name, out := range map[string]*Outcome{"computed": cold, "cached": warm} {
			var got eventList
			out.Replay(&got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the %s outcome replays %d events, not the %d of a full-hit Execute",
					plan.Spec.Name, name, len(got), len(want))
			}
		}
	}
}
