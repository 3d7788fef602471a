package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// atSeed is src with its seed line replaced: a distinct source, and so a
// distinct store key, per seed.
func atSeed(src string, seed int) string {
	return strings.Replace(src, "seed 2009\n", fmt.Sprintf("seed %d\n", seed), 1)
}

// probeBackend is a Backend the store tests watch and steer: it counts
// Loads, runs a hook inside them, and can be swapped for an empty one
// (while the service is idle).
type probeBackend struct {
	campaign.Backend
	mu     sync.Mutex
	loads  int
	onLoad func() // called outside the lock, before the Load
}

func newProbeBackend() *probeBackend { return &probeBackend{Backend: campaign.NewMemBackend()} }

func (b *probeBackend) Load(hash string) ([]byte, error) {
	b.mu.Lock()
	b.loads++
	hook := b.onLoad
	b.mu.Unlock()
	if hook != nil {
		hook()
	}
	return b.Backend.Load(hash)
}

func (b *probeBackend) loadCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loads
}

func (b *probeBackend) forgetEverything() { b.Backend = campaign.NewMemBackend() }

// blockNextLoad makes the next Load signal entered and wait for release;
// the Loads after it pass.
func (b *probeBackend) blockNextLoad() (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var once sync.Once
	b.mu.Lock()
	b.onLoad = func() {
		once.Do(func() {
			close(in)
			<-out
		})
	}
	b.mu.Unlock()
	return in, func() { close(out) }
}

// keptRunOf is the run the store keeps beside src's set, or nil.
func keptRunOf(svc *Service, src string) *keptRun {
	kept, _ := svc.store.lookup(sha256.Sum256([]byte(src)))
	return kept
}

// dropKept forgets the run kept beside src's set, and its charge, so
// that the next run of src executes against the cache again.
func dropKept(svc *Service, src string) {
	st := svc.store
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[sha256.Sum256([]byte(src))]; e != nil && e.kept != nil {
		n := e.kept.size()
		e.kept, e.size, st.bytes = nil, e.size-n, st.bytes-n
	}
}

func setBudget(svc *Service, budget int64) {
	svc.store.mu.Lock()
	svc.store.budget = budget
	svc.store.mu.Unlock()
}

func shutdown(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// runToDone submits src and waits for the run to finish done.
func runToDone(t *testing.T, svc *Service, src string) *Run {
	t.Helper()
	r, err := svc.Submit(src)
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, r.Done())
	if state, err := r.State(); state != StateDone {
		t.Fatalf("%s: state %s, err %v", r.ID, state, err)
	}
	return r
}

func (a artifacts) size() int64 {
	return int64(len(a.jsonl) + len(a.events) + len(a.table) + len(a.csv))
}

// TestEvictedRunRendersTheSameBytes: with room for fewer than two sets,
// three runs at three seeds leave only the last resident, and the first
// run's four outputs still equal what campaign.Plan.Run renders — by a
// replay of the backend's records, and by a recompute when the backend
// has lost them too.
func TestEvictedRunRendersTheSameBytes(t *testing.T) {
	t.Parallel()
	want := cliArtifacts(t, atSeed(plainCampaignSrc, 1))
	for _, recompute := range []bool{false, true} {
		be := newProbeBackend()
		svc := New(Config{Workers: 2, Cache: be})
		budget := want.size() * 3 / 2
		setBudget(svc, budget)
		var runs []*Run
		for seed := 1; seed <= 3; seed++ {
			runs = append(runs, runToDone(t, svc, atSeed(plainCampaignSrc, seed)))
			if n, size := svc.ArtifactStats(); n != 1 || size > budget {
				t.Fatalf("after run %d the store holds %d sets, %d bytes; budget %d fits one", seed, n, size, budget)
			}
		}
		if recompute {
			be.forgetEverything()
		}
		loads := be.loadCount()
		if got := servedArtifacts(t, runs[0]); got != want {
			t.Fatalf("recompute %v: evicted run's outputs differ from Plan.Run's\n%s", recompute, diffHint(want.jsonl, got.jsonl))
		}
		// One render served all four kinds, and made the set resident again.
		if n := be.loadCount() - loads; n != runs[0].Cells() {
			t.Fatalf("recompute %v: four GETs of an evicted run cost %d loads, want one pass of %d", recompute, n, runs[0].Cells())
		}
		if n, size := svc.ArtifactStats(); n != 1 || size != want.size() {
			t.Fatalf("recompute %v: store holds %d sets, %d bytes after the render, want 1 and %d", recompute, n, size, want.size())
		}
		if entries, _, _ := be.Stats(); recompute && entries != runs[0].Cells() {
			t.Fatalf("the recompute stored %d cells, want %d", entries, runs[0].Cells())
		}
		shutdown(t, svc)
	}
}

// TestResidentSourceIsServedWithoutRendering: the second run of a source
// whose set is resident attaches no ReplaySink, serves the first run's
// bytes, and still streams every event (the count TestWarmStreamIsComplete
// expects over TCP).
func TestResidentSourceIsServedWithoutRendering(t *testing.T) {
	t.Parallel()
	var (
		mu       sync.Mutex
		attached [][]string // per run, the types of the sinks it combined
	)
	svc := New(Config{Workers: 2, tee: func(sinks ...obs.Observer) obs.Observer {
		var types []string
		for _, o := range sinks {
			types = append(types, fmt.Sprintf("%T", o))
		}
		mu.Lock()
		attached = append(attached, types)
		mu.Unlock()
		return obs.Tee(sinks...)
	}})
	defer shutdown(t, svc)
	first := runToDone(t, svc, warmStreamSrc)

	const wantEvents = 2 + 80*(3+2*40)
	second, sub, _, err := svc.SubmitStream(warmStreamSrc, 2*wantEvents) // room for all: no lag cut
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for range sub.C {
		events++
	}
	waitClosed(t, second.Done())
	if events != wantEvents || sub.Lagged() {
		t.Fatalf("stream of the unrendered run carried %d events (lagged %v), want %d", events, sub.Lagged(), wantEvents)
	}
	if hits, misses := second.CacheStats(); hits != 80 || misses != 0 {
		t.Fatalf("second run: %d hits, %d misses", hits, misses)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attached) != 2 || strings.Join(attached[0], " ") != "*obs.Broadcast *obs.ReplaySink" ||
		strings.Join(attached[1], " ") != "*obs.Broadcast" {
		t.Fatalf("sinks attached per run: %v, want a ReplaySink on the first run only", attached)
	}
	for _, kind := range outputKinds {
		a, errA := first.Output(context.Background(), kind)
		b, errB := second.Output(context.Background(), kind)
		if errA != nil || errB != nil || len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("%s: the runs do not serve one stored array (%v, %v)", kind, errA, errB)
		}
	}
}

// TestEvictedGetIsSingleFlight: sixteen concurrent GETs of one evicted
// key cause one render — one pass of Loads over the backend — and all
// return the same bytes.
func TestEvictedGetIsSingleFlight(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 2, Cache: be})
	defer shutdown(t, svc)
	setBudget(svc, 1) // only the newest set stays
	evicted := runToDone(t, svc, atSeed(plainCampaignSrc, 1))
	runToDone(t, svc, atSeed(plainCampaignSrc, 2))
	want := cliArtifacts(t, atSeed(plainCampaignSrc, 1)).jsonl

	loads := be.loadCount()
	entered, release := be.blockNextLoad()
	const readers = 16
	got := make([][]byte, readers)
	errs := make([]error, readers)
	var started, finished sync.WaitGroup
	for i := 0; i < readers; i++ {
		started.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			started.Done()
			got[i], errs[i] = evicted.Output(context.Background(), "jsonl")
		}(i)
	}
	// The render is held inside its first Load until every reader is on
	// its way in; one that still arrives late finds the set resident,
	// which costs no Load either.
	waitClosed(t, entered)
	started.Wait()
	release()
	finished.Wait()
	for i := range got {
		if errs[i] != nil || string(got[i]) != want {
			t.Fatalf("reader %d: err %v, bytes equal to Plan.Run's: %v", i, errs[i], string(got[i]) == want)
		}
	}
	if n := be.loadCount() - loads; n != evicted.Cells() {
		t.Fatalf("%d concurrent GETs cost %d loads, want one render's %d", readers, n, evicted.Cells())
	}
}

// TestGetDuringShutdown: a GET that needs a render when Shutdown lands
// returns ErrShuttingDown, one that arrives later is refused the same
// way, and neither holds Shutdown up beyond the render's current cell.
func TestGetDuringShutdown(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 1, Cache: be})
	setBudget(svc, 1)
	evicted := runToDone(t, svc, atSeed(plainCampaignSrc, 1))
	resident := runToDone(t, svc, atSeed(plainCampaignSrc, 2))

	entered, release := be.blockNextLoad()
	waiting := make(chan error, 1)
	go func() {
		_, err := evicted.Output(context.Background(), "table")
		waiting <- err
	}()
	waitClosed(t, entered) // the render is in flight, its reader waiting
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stopped <- svc.Shutdown(ctx)
	}()
	select {
	case err := <-waiting:
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("GET waiting through Shutdown: %v, want ErrShuttingDown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("GET waiting on a render hung through Shutdown")
	}
	release()
	if err := <-stopped; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The render finished its pass and is resident; the other key now
	// needs one, which a stopped service refuses.
	if _, err := evicted.Output(context.Background(), "table"); err != nil {
		t.Fatalf("resident set after Shutdown: %v", err)
	}
	if _, err := resident.Output(context.Background(), "table"); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("GET needing a render after Shutdown: %v, want ErrShuttingDown", err)
	}
}

// TestGetGivesUpWithItsContext: a reader whose context ends leaves the
// flight with that error; the render goes on for the reader that stays.
func TestGetGivesUpWithItsContext(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 1, Cache: be})
	defer shutdown(t, svc)
	setBudget(svc, 1)
	evicted := runToDone(t, svc, atSeed(plainCampaignSrc, 1))
	runToDone(t, svc, atSeed(plainCampaignSrc, 2))

	entered, release := be.blockNextLoad()
	staying := make(chan error, 1)
	go func() {
		_, err := evicted.Output(context.Background(), "csv")
		staying <- err
	}()
	waitClosed(t, entered)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evicted.Output(ctx, "csv"); !errors.Is(err, context.Canceled) {
		t.Fatalf("GET with a cancelled context: %v, want context.Canceled", err)
	}
	release()
	if err := <-staying; err != nil {
		t.Fatalf("the other reader of the flight: %v", err)
	}
}

// heapAfterGC is the live heap once garbage is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSoakMemoryFollowsDistinctSources: 2 000 warm re-POSTs of one
// source and 200 other seeds, with room for four sets. Resident bytes
// never pass the budget, and from run 250 on (every distinct source
// seen) the live heap grows by what 1 750 finished runs retain: under
// 1 KiB each, under 2 MiB in all. Not parallel: it reads the process's
// heap, and sequential tests run while the parallel ones are paused.
func TestSoakMemoryFollowsDistinctSources(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer shutdown(t, svc)
	budget := 4 * cliArtifacts(t, plainCampaignSrc).size()
	setBudget(svc, budget)
	const (
		distinct = 200
		markLo   = 250
		markHi   = 2000
		total    = 2000 + distinct
	)
	var heapLo, heapHi uint64
	var first *Run
	want := ""
	for i := 0; i < total; i++ {
		src := plainCampaignSrc
		// The other seeds come first, four in five runs, so that from
		// markLo on the heap moves only by what finished runs retain.
		if seed := i - i/5; i%5 != 4 && seed < distinct {
			src = atSeed(plainCampaignSrc, 3000+seed)
		}
		r := runToDone(t, svc, src)
		if first == nil {
			first = r
			data, err := r.Output(context.Background(), "jsonl")
			if err != nil {
				t.Fatal(err)
			}
			want = string(data)
		}
		if n, size := svc.ArtifactStats(); size > budget || n > 4 {
			t.Fatalf("after run %d the store holds %d sets, %d bytes; budget %d", i+1, n, size, budget)
		}
		// Keep evicted sets coming back, so renders and evictions go on
		// through the long phase too.
		if i%100 == 99 {
			data, err := first.Output(context.Background(), "jsonl")
			if err != nil || string(data) != want {
				t.Fatalf("run 1 read back at run %d: err %v, bytes equal %v", i+1, err, string(data) == want)
			}
		}
		switch i + 1 {
		case markLo:
			heapLo = heapAfterGC()
		case markHi:
			heapHi = heapAfterGC()
		}
	}
	if n := len(svc.Runs()); n != total {
		t.Fatalf("%d runs registered, want %d", n, total)
	}
	grown := int64(heapHi) - int64(heapLo)
	perRun := grown / (markHi - markLo)
	t.Logf("live heap %d B at run %d, %d B at run %d: %d B per finished run", heapLo, markLo, heapHi, markHi, perRun)
	if grown > 2<<20 || perRun > 1<<10 {
		t.Fatalf("live heap grew %d B over %d runs (%d B per run), want under 2 MiB and under 1 KiB per run",
			grown, markHi-markLo, perRun)
	}
}
