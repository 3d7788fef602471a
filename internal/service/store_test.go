package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// keyOf is the rendered key the service stores src's entry under.
func keyOf(src string) string { return campaign.RenderedKey([]byte(src), 0, 1) }

// outputBytes reads r's artifact kind whole.
func outputBytes(ctx context.Context, r *Run, kind string) ([]byte, error) {
	a, err := r.Output(ctx, kind)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return io.ReadAll(a)
}

// keptStream is the stream src's indexed entry keeps, or nil when it is
// not indexed.
func keptStream(svc *Service, src string) []byte {
	if idx, _ := svc.store.index(keyOf(src)); idx == nil {
		return nil
	}
	a, _ := svc.open(keyOf(src), campaign.SectionStream)
	if a == nil {
		return nil
	}
	defer a.Close()
	if data, err := io.ReadAll(a); err == nil && len(data) > 0 {
		return data
	}
	return nil
}

// dropKept removes src's rendered entry, and with it the stream it keeps,
// so that the next run of src executes against the cache again (and
// writes the entry once more).
func dropKept(svc *Service, src string) {
	if idx, be := svc.store.index(keyOf(src)); idx != nil {
		be.RemoveRendered(keyOf(src))
		svc.store.drop(keyOf(src), idx)
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

// entrySize is the length of the rendered entry of a's sections and
// stream, for a campaign of that name and cell count owning every cell:
// the sections, and the head and trailer of the entry's format.
func entrySize(a artifacts, stream []byte, name string, cells int) int64 {
	head := 4 + 64 + len(binary.AppendUvarint(nil, uint64(len(name)))) + len(name) +
		2*len(binary.AppendUvarint(nil, uint64(cells)))
	return a.size() + int64(len(stream)+head+campaign.NumSections*8+4)
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
		runs := []*Run{runToDone(t, svc, atSeed(plainCampaignSrc, 1))}
		_, one := svc.ArtifactStats()
		budget := one * 3 / 2 // room for one entry, not two
		setBudget(svc, budget)
		for seed := 2; seed <= 3; seed++ {
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
		// The entry is written again, its stream included.
		entry := entrySize(want, keptStream(svc, atSeed(plainCampaignSrc, 1)), "svc-plain", runs[0].Cells())
		if n, size := svc.ArtifactStats(); n != 1 || size != entry {
			t.Fatalf("recompute %v: store holds %d sets, %d bytes after the render, want 1 and %d", recompute, n, size, entry)
		}
		if entries, _, _ := be.Stats(); recompute && entries != runs[0].Cells() {
			t.Fatalf("the recompute stored %d cells, want %d", entries, runs[0].Cells())
		}
		shutdown(t, svc)
	}
}

// TestResidentSourceIsServedWithoutRendering: a second run of a source,
// submitted while the first still runs and so executed once the first
// has written the entry, attaches no ReplaySink, serves the first run's
// bytes, and still streams every event (the count
// TestWarmStreamIsComplete expects over TCP).
func TestResidentSourceIsServedWithoutRendering(t *testing.T) {
	t.Parallel()
	var (
		mu       sync.Mutex
		attached [][]string // per run, the types of the sinks it combined
	)
	be := newProbeBackend()
	svc := New(Config{Workers: 2, Cache: be, tee: func(sinks ...obs.Observer) obs.Observer {
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
	entered, release := be.blockNextLoad()
	first, err := svc.Submit(warmStreamSrc)
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, entered) // the first run holds the dispatcher

	const wantEvents = 2 + 80*(3+2*40)
	second, sub, _, err := svc.SubmitStream(warmStreamSrc, 2*wantEvents) // room for all: no lag cut
	if err != nil {
		t.Fatal(err)
	}
	release()
	waitClosed(t, first.Done())
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
		a, errA := outputBytes(context.Background(), first, kind)
		b, errB := outputBytes(context.Background(), second, kind)
		if errA != nil || errB != nil || len(a) == 0 || string(a) != string(b) {
			t.Fatalf("%s: the runs do not serve one stored entry (%v, %v)", kind, errA, errB)
		}
	}
	if n, _ := svc.ArtifactStats(); n != 1 {
		t.Fatalf("two runs of one source left %d entries, want 1", n)
	}
}

// TestEvictedGetIsSingleFlight: concurrent GETs of one evicted key, twice
// as many as the queue holds, cause one run of the source — one compile
// and one pass of Loads over the backend — and all return the same
// bytes.
func TestEvictedGetIsSingleFlight(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	var compiles atomic.Int64
	svc := New(Config{Workers: 2, Cache: be, compile: func(src string, workers int) (*campaign.Plan, error) {
		compiles.Add(1)
		return compileSource(src, workers)
	}})
	defer shutdown(t, svc)
	setBudget(svc, 1) // only the newest set stays
	evicted := runToDone(t, svc, atSeed(plainCampaignSrc, 1))
	runToDone(t, svc, atSeed(plainCampaignSrc, 2))
	want := cliArtifacts(t, atSeed(plainCampaignSrc, 1)).jsonl

	loads, compiled := be.loadCount(), compiles.Load()
	entered, release := be.blockNextLoad()
	readers := 2 * cap(svc.queue)
	got := make([][]byte, readers)
	errs := make([]error, readers)
	var started, finished sync.WaitGroup
	for i := 0; i < readers; i++ {
		started.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			started.Done()
			got[i], errs[i] = outputBytes(context.Background(), evicted, "jsonl")
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
	if n := compiles.Load() - compiled; n != 1 {
		t.Fatalf("%d concurrent GETs compiled the source %d times, want once", readers, n)
	}
}

// storeGate is a backend whose first Store once armed signals hit and
// waits for release: a run caught computing its first cell.
type storeGate struct {
	campaign.Backend
	armed        atomic.Bool
	hit, release chan struct{}
	once         sync.Once
}

func (g *storeGate) Store(hash string, data []byte) error {
	if g.armed.Load() {
		g.once.Do(func() {
			close(g.hit)
			<-g.release
		})
	}
	return g.Backend.Store(hash, data)
}

// TestEvictedGetPassesAFullQueue: the run that writes an evicted entry
// again takes no queue slot and waits for no queued run. With the
// dispatcher held inside a fresh run and the queue full of POSTs, GETs of
// two evicted sources under a budget that fits one entry, more of them
// than the queue holds and interleaved so that each source's entry
// evicts the other's, all return the right bytes: an entry written for
// its readers stays until each has opened it.
func TestEvictedGetPassesAFullQueue(t *testing.T) {
	t.Parallel()
	be := &storeGate{Backend: campaign.NewDirBackend(t.TempDir()), hit: make(chan struct{}), release: make(chan struct{})}
	svc := New(Config{Workers: 2, Cache: be, QueueDepth: 2})
	defer shutdown(t, svc)
	setBudget(svc, 1) // only the newest entry stays
	srcs := []string{atSeed(plainCampaignSrc, 1), atSeed(plainCampaignSrc, 2)}
	var runs []*Run
	var wants []string
	for _, src := range srcs {
		runs = append(runs, runToDone(t, svc, src))
		wants = append(wants, cliArtifacts(t, src).jsonl)
	}
	dropKept(svc, srcs[1]) // both evicted

	be.armed.Store(true)
	defer close(be.release)
	if _, err := svc.Submit(atSeed(plainCampaignSrc, 10)); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, be.hit)
	for seed := 11; ; seed++ {
		if _, err := svc.Submit(atSeed(plainCampaignSrc, seed)); errors.Is(err, ErrQueueFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 3
	readers := 2 * cap(svc.queue)
	errs := make(chan error, 2*readers*rounds)
	var wg sync.WaitGroup
	for i := range 2 * readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				got, err := outputBytes(context.Background(), runs[i%2], "jsonl")
				if err == nil && string(got) != wants[i%2] {
					err = fmt.Errorf("%s: the jsonl differs from Plan.Run's", runs[i%2].ID)
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if state, _ := svc.Runs()[2].State(); state != StateRunning {
		t.Fatalf("the held run is %s, want running: the GETs were served past it", state)
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
		_, err := outputBytes(context.Background(), evicted, "table")
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
	if _, err := outputBytes(context.Background(), evicted, "table"); err != nil {
		t.Fatalf("resident set after Shutdown: %v", err)
	}
	if _, err := outputBytes(context.Background(), resident, "table"); !errors.Is(err, ErrShuttingDown) {
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
		_, err := outputBytes(context.Background(), evicted, "csv")
		staying <- err
	}()
	waitClosed(t, entered)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := outputBytes(ctx, evicted, "csv"); !errors.Is(err, context.Canceled) {
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
			data, err := outputBytes(context.Background(), r, "jsonl")
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
			data, err := outputBytes(context.Background(), first, "jsonl")
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

// dropIndex makes the store forget src's entry, leaving it in its backend.
func dropIndex(svc *Service, src string) {
	idx, _ := svc.store.index(keyOf(src))
	svc.store.drop(keyOf(src), idx)
}
