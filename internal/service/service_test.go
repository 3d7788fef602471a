package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// gateBackend wraps a Backend and blocks the first call to the gated
// method until released, signaling hit — a deterministic way to catch a
// run mid-flight.
type gateBackend struct {
	campaign.Backend
	gateStore bool // gate Store (else gate Load)
	hit       chan struct{}
	release   chan struct{}
	once      sync.Once
}

func (g *gateBackend) Load(hash string) ([]byte, error) {
	if !g.gateStore {
		g.once.Do(func() {
			close(g.hit)
			<-g.release
		})
	}
	return g.Backend.Load(hash)
}

func (g *gateBackend) Store(hash string, data []byte) error {
	if g.gateStore {
		g.once.Do(func() {
			close(g.hit)
			<-g.release
		})
	}
	return g.Backend.Store(hash, data)
}

// TestServiceShutdownDrainsAndResumes is the daemon-restart contract:
// shutdown mid-run lets the in-flight cell finish and persist, a fresh
// service over the same cache directory resumes the re-submitted spec
// and serves byte-identical final output.
func TestServiceShutdownDrainsAndResumes(t *testing.T) {
	t.Parallel()
	want := cliArtifacts(t, faultCampaignSrc)
	dir := t.TempDir()

	// Service 1: single worker, Store gated — the worker blocks while
	// persisting its first computed cell.
	gate := &gateBackend{
		Backend:   campaign.NewDirBackend(dir),
		gateStore: true,
		hit:       make(chan struct{}),
		release:   make(chan struct{}),
	}
	svc1 := New(Config{Cache: gate, Workers: 1})
	r1, err := svc1.Submit(faultCampaignSrc)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.hit
	// SIGTERM equivalent: drain while the worker is inside cell 0.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- svc1.Shutdown(ctx)
	}()
	// Shutdown cancels the run context before the gate releases, so the
	// worker's current cell is provably in-flight at drain time.
	waitClosed(t, svc1.ctx.Done())
	close(gate.release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if state, err := r1.State(); state != StateFailed || !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("drained run state %s, err %v", state, err)
	}
	// The in-flight cell persisted; nothing else started.
	if n, _, err := campaign.CacheEntries(dir); err != nil || n != 1 {
		t.Fatalf("cache holds %d cells after drain (err %v), want 1", n, err)
	}
	// The service refuses new work after shutdown.
	if _, err := svc1.Submit(faultCampaignSrc); err == nil {
		t.Fatal("Submit accepted after shutdown")
	}

	// Service 2 ("restarted daemon") over the same directory resumes.
	svc2 := New(Config{Cache: campaign.NewDirBackend(dir), Workers: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc2.Shutdown(ctx)
	}()
	r2, err := svc2.Submit(faultCampaignSrc)
	if err != nil {
		t.Fatal(err)
	}
	<-r2.Done()
	if state, err := r2.State(); state != StateDone {
		t.Fatalf("resumed run state %s, err %v", state, err)
	}
	if hits, misses := r2.CacheStats(); hits != 1 || misses != 7 {
		t.Fatalf("resume: %d hits, %d misses, want 1 and 7", hits, misses)
	}
	if got := servedArtifacts(t, r2); got != want {
		t.Fatal("resumed service output differs from the CLI run")
	}
}

func waitClosed(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for channel close")
	}
}

// TestServiceShutdownFailsQueuedRuns: runs still queued at shutdown
// fail cleanly (never hang a Done waiter) and their error says why.
func TestServiceShutdownFailsQueuedRuns(t *testing.T) {
	t.Parallel()
	gate := &gateBackend{
		Backend: campaign.NewMemBackend(),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	svc := New(Config{Cache: gate, Workers: 1, QueueDepth: 4})
	first, err := svc.Submit(faultCampaignSrc) // dispatcher blocks in its cache pass
	if err != nil {
		t.Fatal(err)
	}
	<-gate.hit
	queued, err := svc.Submit(plainCampaignSrc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()
	waitClosed(t, svc.ctx.Done())
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitClosed(t, first.Done())
	waitClosed(t, queued.Done())
	if state, err := first.State(); state != StateFailed || !errors.Is(err, campaign.ErrDrained) {
		t.Fatalf("in-flight run: state %s, err %v", state, err)
	}
	if state, err := queued.State(); state != StateFailed || err == nil || !strings.Contains(err.Error(), "before the run started") {
		t.Fatalf("queued run: state %s, err %v", state, err)
	}
	if _, err := outputBytes(context.Background(), queued, "jsonl"); err == nil {
		t.Fatal("failed run served an output")
	}
	// A run that failed without reaching execute drops its plan too.
	if holdsPlanOrSource(first) || holdsPlanOrSource(queued) {
		t.Fatal("a failed run still holds its plan or its source")
	}
}

// TestServiceRejectsBadSpecAtSubmit: parse and compile errors surface
// at Submit, not mid-queue.
func TestServiceRejectsBadSpecAtSubmit(t *testing.T) {
	t.Parallel()
	svc := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	if _, err := svc.Submit("not a campaign at all"); err == nil {
		t.Fatal("garbage spec accepted")
	}
	if runs := svc.Runs(); len(runs) != 0 {
		t.Fatalf("rejected spec left %d runs registered", len(runs))
	}
}

// holdsPlanOrSource reports whether r still pins what only a waiting or
// executing run needs. A run never holds its source: the store keeps it.
func holdsPlanOrSource(r *Run) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.plan != nil
}

// TestFinishedRunKeepsNoPlanSourceOrBytes: the registry never evicts, so
// a finished run must pin neither its compiled plan nor its source text,
// and has no rendered bytes of its own: they are its source's rendered
// entry's, one for both runs. It must still answer Name and Cells.
func TestFinishedRunKeepsNoPlanSourceOrBytes(t *testing.T) {
	t.Parallel()
	svc := New(Config{Workers: 1})
	defer shutdown(t, svc)
	var runs []*Run
	for i := 0; i < 2; i++ {
		r, err := svc.Submit(plainCampaignSrc)
		if err != nil {
			t.Fatal(err)
		}
		waitClosed(t, r.Done())
		if state, err := r.State(); state != StateDone {
			t.Fatalf("run state %s, err %v", state, err)
		}
		if holdsPlanOrSource(r) {
			t.Errorf("%s still holds its plan or its source after finishing", r.ID)
		}
		if r.Name() != "svc-plain" || r.Cells() == 0 {
			t.Errorf("%s: Name %q, Cells %d after finishing", r.ID, r.Name(), r.Cells())
		}
		runs = append(runs, r)
	}
	for _, kind := range outputKinds {
		data, err := outputBytes(context.Background(), runs[0], kind)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %d bytes, err %v", kind, len(data), err)
		}
		// One source, one entry: the second run serves the first run's bytes.
		again, err := outputBytes(context.Background(), runs[1], kind)
		if err != nil || string(again) != string(data) {
			t.Errorf("%s: the second run of the source does not serve the stored bytes (err %v)", kind, err)
		}
	}
	if entries, size := svc.ArtifactStats(); entries != 1 || size <= 0 {
		t.Fatalf("store holds %d sets, %d bytes after two runs of one source", entries, size)
	}
}

// TestRefusedSubmitRegistersNothing: a submit the queue refuses, or that
// arrives after Shutdown, leaves the registry as it was — under overload
// every 503 used to leave a failed run behind whose id no client knew.
func TestRefusedSubmitRegistersNothing(t *testing.T) {
	t.Parallel()
	gate := &gateBackend{
		Backend: campaign.NewMemBackend(),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	svc, ts := startTestServer(t, Config{Cache: gate, Workers: 1, QueueDepth: 1})
	running, err := svc.Submit(plainCampaignSrc) // dispatcher blocks in its cache pass
	if err != nil {
		t.Fatal(err)
	}
	<-gate.hit
	queued, err := svc.Submit(plainCampaignSrc) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	listed := func() int {
		t.Helper()
		var list []runJSON
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/runs", 200)), &list); err != nil {
			t.Fatal(err)
		}
		return len(list)
	}
	refuse := func(want error, registered int) {
		t.Helper()
		for i := 0; i < 50; i++ {
			if r, err := svc.Submit(plainCampaignSrc); !errors.Is(err, want) || r != nil {
				t.Fatalf("Submit: run %v, err %v, want %v", r, err, want)
			}
			if r, sub, _, err := svc.SubmitStream(plainCampaignSrc, 16); !errors.Is(err, want) || r != nil || sub != nil {
				t.Fatalf("SubmitStream: run %v, subscription %v, err %v, want %v", r, sub, err, want)
			}
		}
		if n := len(svc.Runs()); n != registered {
			t.Fatalf("100 refused submits (%v) left %d runs registered, want the %d accepted", want, n, registered)
		}
		if n := listed(); n != registered {
			t.Fatalf("GET /v1/runs lists %d runs after 100 refused submits (%v), want %d", n, want, registered)
		}
	}
	refuse(ErrQueueFull, 2)
	close(gate.release)
	waitClosed(t, running.Done())
	waitClosed(t, queued.Done())
	// The ids stay dense: the next accepted run is the third.
	third, err := svc.Submit(plainCampaignSrc)
	if err != nil || third.ID != "run-0003" {
		t.Fatalf("first submit after the refusals: %v, err %v, want run-0003", third, err)
	}
	waitClosed(t, third.Done())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	refuse(ErrShuttingDown, 3)
}

// bomb panics, once, inside the trial-finish event of one cell: what a
// broken protocol body, adversary or observer does to the worker that
// runs it.
type bomb struct {
	key   string
	armed atomic.Bool
}

func newBomb(key string) *bomb {
	b := &bomb{key: key}
	b.armed.Store(true)
	return b
}

func (b *bomb) Observe(e obs.Event) {
	if e.Kind == obs.KindTrialFinish && e.Key == b.key && b.armed.CompareAndSwap(true, false) {
		panic("bomb in " + b.key)
	}
}

// bombed is a service whose runs all observe b.
func bombed(cfg Config, b *bomb) Config {
	cfg.tee = func(sinks ...obs.Observer) obs.Observer { return obs.Tee(append(sinks, b)...) }
	return cfg
}

// TestCellPanicFailsTheRunOnly: a panic inside a cell used to kill the
// process, and with it every run. Now Execute returns an error naming
// the cell, the service's run ends failed with that text in its status,
// nothing is stored for the cell, and the next run of the same source on
// the same service recomputes it and serves the right bytes.
func TestCellPanicFailsTheRunOnly(t *testing.T) {
	t.Parallel()
	want := cliArtifacts(t, faultCampaignSrc)
	plan := compilePlan(t, faultCampaignSrc)
	key := plan.Cells[5].Key
	wantErr := fmt.Sprintf("campaign: cell %q panicked: bomb in %s", key, key)

	for _, workers := range []int{1, 4} {
		_, err := Execute(context.Background(), compilePlan(t, faultCampaignSrc),
			ExecOptions{Workers: workers, Cache: campaign.NewMemBackend(), Observer: newBomb(key)})
		if err == nil || err.Error() != wantErr {
			t.Fatalf("Execute with %d workers over a panicking cell: %v, want %s", workers, err, wantErr)
		}
	}

	cache := campaign.NewMemBackend()
	svc := New(bombed(Config{Workers: 1, Cache: cache}, newBomb(key)))
	defer shutdown(t, svc)
	failed, err := svc.Submit(faultCampaignSrc)
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, failed.Done())
	if status := runStatus(failed); status.State != StateFailed || status.Error != wantErr {
		t.Fatalf("status of the run with a panicking cell: %+v, want failed with %s", status, wantErr)
	}
	// One worker takes the cells in order: 0 to 4 are stored, 5 is not.
	if entries, _, _ := cache.Stats(); entries != 5 {
		t.Fatalf("cache holds %d cells after the failed run, want the 5 before the panic", entries)
	}
	if n, _ := svc.ArtifactStats(); n != 0 {
		t.Fatalf("the failed run left %d artifact sets", n)
	}
	next := runToDone(t, svc, faultCampaignSrc)
	if hits, misses := next.CacheStats(); hits != 5 || misses != 3 {
		t.Fatalf("run after the failed one: %d hits, %d misses, want 5 and 3", hits, misses)
	}
	if got := servedArtifacts(t, next); got != want {
		t.Fatal("run after the failed one serves bytes that differ from the CLI run")
	}
}

// failAt panics inside the given trial-finish of each listed cell.
type failAt map[string]int // cell key → trial

func (f failAt) Observe(e obs.Event) {
	if trial, ok := f[e.Key]; ok && e.Kind == obs.KindTrialFinish && e.Trial == trial {
		panic("broke in " + e.Key)
	}
}

// TestFailedRunReportsTheLowestCell: with two failing cells the run's
// error names the lower index, whichever worker failed first. Cell 4
// fails in its first trial and cell 3 in its last, so cell 4's failure
// is usually the earlier one; the daemon's former executor reported the
// failure of the lowest worker index instead, which here was often 4's.
func TestFailedRunReportsTheLowestCell(t *testing.T) {
	t.Parallel()
	plan := compilePlan(t, faultCampaignSrc)
	low, high := plan.Cells[3].Key, plan.Cells[4].Key
	wantErr := fmt.Sprintf("campaign: cell %q panicked: broke in %s", low, low)
	fails := failAt{low: 2, high: 0}
	cfg := Config{Workers: 4}
	cfg.tee = func(sinks ...obs.Observer) obs.Observer { return obs.Tee(append(sinks, fails)...) }
	for rep := 0; rep < 20; rep++ {
		cfg.Cache = campaign.NewMemBackend() // cold every time: all eight cells compute
		svc := New(cfg)
		r, err := svc.Submit(faultCampaignSrc)
		if err != nil {
			t.Fatal(err)
		}
		waitClosed(t, r.Done())
		if status := runStatus(r); status.State != StateFailed || status.Error != wantErr {
			t.Fatalf("repetition %d: status %+v, want failed with %s", rep, status, wantErr)
		}
		shutdown(t, svc)
	}
}
