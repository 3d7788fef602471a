package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
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
	if state, err := r1.State(); state != StateFailed || !errors.Is(err, ErrDrained) {
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
	jsonl, _ := r2.Output("jsonl")
	events, _ := r2.Output("events")
	table, _ := r2.Output("table")
	got := artifacts{string(jsonl), string(events), string(table)}
	if got != want {
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
	if state, err := first.State(); state != StateFailed || !errors.Is(err, ErrDrained) {
		t.Fatalf("in-flight run: state %s, err %v", state, err)
	}
	if state, err := queued.State(); state != StateFailed || err == nil || !strings.Contains(err.Error(), "before the run started") {
		t.Fatalf("queued run: state %s, err %v", state, err)
	}
	if _, err := queued.Output("jsonl"); err == nil {
		t.Fatal("failed run served an output")
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

// TestFinishedRunKeepsOnlyItsArtifacts: the registry never evicts, so a
// finished run must not pin its compiled plan or the slack of the
// buffers its artifacts were rendered in — and must still answer Name
// and Cells. A run that failed in the queue drops its plan too.
func TestFinishedRunKeepsOnlyItsArtifacts(t *testing.T) {
	t.Parallel()
	gate := &gateBackend{
		Backend: campaign.NewMemBackend(),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	svc := New(Config{Cache: gate, Workers: 1, QueueDepth: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	done, err := svc.Submit(plainCampaignSrc) // dispatcher blocks in its cache pass
	if err != nil {
		t.Fatal(err)
	}
	<-gate.hit
	if _, err := svc.Submit(plainCampaignSrc); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := svc.Submit(plainCampaignSrc); err == nil {
		t.Fatal("Submit accepted beyond the queue depth")
	}
	refused := svc.Runs()[2]
	close(gate.release)
	waitClosed(t, done.Done())
	if state, err := done.State(); state != StateDone {
		t.Fatalf("run state %s, err %v", state, err)
	}
	for _, r := range []*Run{done, refused} {
		r.mu.Lock()
		plan := r.plan
		r.mu.Unlock()
		if plan != nil {
			t.Errorf("%s still holds its plan after finishing", r.ID)
		}
		if r.Name() != "svc-plain" || r.Cells() == 0 {
			t.Errorf("%s: Name %q, Cells %d after finishing", r.ID, r.Name(), r.Cells())
		}
	}
	for _, kind := range []string{"jsonl", "events", "table", "csv"} {
		data, err := done.Output(kind)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %d bytes, err %v", kind, len(data), err)
		}
		// make rounds a request up to a size class, so allow its slack:
		// at most one eighth, where a doubled buffer wastes up to half.
		if cap(data) > len(data)+len(data)/8+64 {
			t.Errorf("%s: %d bytes held in a %d-byte array", kind, len(data), cap(data))
		}
	}
}
