package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// entryOf is a stand-in entry of n bytes: the tier moves bytes and
// never decodes them.
func entryOf(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }

// checkHot fails unless the tier holds entries resident entries of
// size bytes in all, never over its budget, and has served hits Loads.
func checkHot(t *testing.T, h *hotTier, entries int, size, hits int64) {
	t.Helper()
	n, b, k := h.stats()
	if n != entries || b != size || k != hits {
		t.Fatalf("tier holds %d entries, %d bytes, %d hits; want %d, %d, %d", n, b, k, entries, size, hits)
	}
	if b > h.budget {
		t.Fatalf("tier holds %d bytes over its budget %d", b, h.budget)
	}
}

// TestHotTierBudget: a hit returns the held bytes and leaves the backend
// alone; filling past the budget evicts from the least recently used
// end, resident bytes never pass the budget, and an entry larger than
// the whole budget is served but not kept.
func TestHotTierBudget(t *testing.T) {
	be := newProbeBackend()
	for i, size := range []int{40, 30, 30, 20, 101} {
		be.Store(fmt.Sprint("h", i), entryOf(size, byte('a'+i)))
	}
	h := newHotTier(be, 100)
	load := func(hash string) []byte {
		t.Helper()
		data, err := h.Load(hash)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	load("h0")
	load("h1")
	load("h2")
	checkHot(t, h, 3, 100, 0)
	if data := load("h0"); len(data) != 40 || data[0] != 'a' {
		t.Fatalf("hit returned %q", data)
	}
	if be.loadCount() != 3 {
		t.Fatalf("backend Loads %d after a hit, want 3", be.loadCount())
	}
	checkHot(t, h, 3, 100, 1)
	// h0 was used last: h1 and then h2 go to make room for h3 (20 B).
	load("h3")
	checkHot(t, h, 3, 90, 1)
	loads := be.loadCount()
	load("h0")
	load("h2")
	if n := be.loadCount() - loads; n != 0 {
		t.Fatalf("h0 and h2 cost %d backend Loads, want hits", n)
	}
	if _, ok := h.entries["h1"]; ok {
		t.Fatal("h1, least recently used, is still resident")
	}
	checkHot(t, h, 3, 90, 3)
	// Over the budget alone: served, never resident, nothing evicted.
	for range 2 {
		if data := load("h4"); len(data) != 101 {
			t.Fatalf("oversized entry served as %d bytes", len(data))
		}
	}
	checkHot(t, h, 3, 90, 3)
}

// flakyBackend fails the Loads of one hash while fail is set.
type flakyBackend struct {
	campaign.Backend
	hash string
	fail bool
}

func (b *flakyBackend) Load(hash string) ([]byte, error) {
	if b.fail && hash == b.hash {
		return nil, errors.New("disk on fire")
	}
	return b.Backend.Load(hash)
}

// TestHotTierNeverCachesAMiss: a hash the backend did not have, or
// could not read, is asked of the backend again, so an entry another
// writer (another daemon, or sscampaign on the same directory) stores
// after the miss is the next Load's.
func TestHotTierNeverCachesAMiss(t *testing.T) {
	dir := t.TempDir()
	h := newHotTier(campaign.NewDirBackend(dir), hotBudget)
	if data, err := h.Load("cell"); data != nil || err != nil {
		t.Fatalf("empty directory: %q, %v", data, err)
	}
	if err := campaign.NewDirBackend(dir).Store("cell", []byte("entry")); err != nil {
		t.Fatal(err)
	}
	if data, err := h.Load("cell"); string(data) != "entry" || err != nil {
		t.Fatalf("after another writer's Store: %q, %v; want the stored entry", data, err)
	}

	flaky := &flakyBackend{Backend: campaign.NewMemBackend(), hash: "cell", fail: true}
	flaky.Backend.Store("cell", []byte("entry"))
	h = newHotTier(flaky, hotBudget)
	if _, err := h.Load("cell"); err == nil {
		t.Fatal("the backend's error was not passed on")
	}
	checkHot(t, h, 0, 0, 0)
	flaky.fail = false
	if data, err := h.Load("cell"); string(data) != "entry" || err != nil {
		t.Fatalf("after the error cleared: %q, %v", data, err)
	}
	checkHot(t, h, 1, 5, 0)
}

// TestHotTierStoreDrops: Store removes the hash from the tier and writes
// through, so the next Load reads the new bytes from the backend.
func TestHotTierStoreDrops(t *testing.T) {
	be := newProbeBackend()
	be.Store("cell", []byte("old"))
	h := newHotTier(be, hotBudget)
	h.Load("cell")
	checkHot(t, h, 1, 3, 0)
	if err := h.Store("cell", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	checkHot(t, h, 0, 0, 0)
	if data, _ := be.Backend.Load("cell"); string(data) != "newer" {
		t.Fatalf("backend holds %q after the Store", data)
	}
	loads := be.loadCount()
	if data, _ := h.Load("cell"); string(data) != "newer" || be.loadCount() != loads+1 {
		t.Fatalf("Load after Store: %q from %d backend Loads", data, be.loadCount()-loads)
	}
	checkHot(t, h, 1, 5, 0)

	// A Load whose backend read overlaps a Store of its hash cannot tell
	// which bytes it read: it returns them and keeps none.
	h.Store("cell", []byte("newest")) // out of the tier, so the next Load reads the backend
	entered, release := be.blockNextLoad()
	read := make(chan []byte)
	go func() {
		data, _ := h.Load("cell")
		read <- data
	}()
	waitClosed(t, entered)
	if err := h.Store("cell", []byte("latest")); err != nil {
		t.Fatal(err)
	}
	release()
	if data := <-read; string(data) != "latest" {
		t.Fatalf("the racing Load returned %q", data)
	}
	checkHot(t, h, 0, 0, 0)
}

// TestHotTierFillsFromWarmRunsOnly: runs that compute every cell leave
// the tier empty; the first warm run (its source's entry removed, so
// that it executes) fills it from the backend, the next one whose entry
// was evicted is served from it, the one after that is served the kept
// stream and reads neither, and all three serve the reference bytes.
func TestHotTierFillsFromWarmRunsOnly(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 2, Cache: be})
	defer shutdown(t, svc)
	for seed := 1; seed <= 2; seed++ {
		r := runToDone(t, svc, atSeed(plainCampaignSrc, seed))
		if hits, _ := r.CacheStats(); hits != 0 {
			t.Fatalf("seed %d: %d hits on a cold run", seed, hits)
		}
	}
	if n, b, k := svc.hotStats(); n != 0 || b != 0 || k != 0 {
		t.Fatalf("after two cold runs the tier holds %d entries, %d bytes, %d hits; want it empty", n, b, k)
	}
	src := atSeed(plainCampaignSrc, 1)
	want := cliArtifacts(t, src)
	dropKept(svc, src)
	loads := be.loadCount()
	first := runToDone(t, svc, src)
	cells := int64(first.Cells())
	if n := be.loadCount() - loads; n != first.Cells() {
		t.Fatalf("first warm run: %d backend Loads, want %d", n, first.Cells())
	}
	if n, _, k := svc.hotStats(); int64(n) != cells || k != 0 {
		t.Fatalf("first warm run: tier holds %d entries, %d hits; want %d and 0", n, k, cells)
	}
	// The first warm run's stream is kept beside its set. A cold run
	// under a budget that fits one set evicts both, so the second warm
	// run renders the set again, from the tier.
	setBudget(svc, 1)
	runToDone(t, svc, atSeed(plainCampaignSrc, 3))
	loads = be.loadCount()
	second := runToDone(t, svc, src)
	if n := be.loadCount() - loads; n != 0 {
		t.Fatalf("second warm run read the backend %d times", n)
	}
	if _, _, k := svc.hotStats(); k != cells {
		t.Fatalf("second warm run: %d tier hits, want %d", k, cells)
	}
	// Its set is resident with its stream: the third run is served that.
	third := runToDone(t, svc, src)
	if n := be.loadCount() - loads; n != 0 {
		t.Fatalf("the resident run read the backend %d times", n)
	}
	if _, _, k := svc.hotStats(); k != cells {
		t.Fatalf("the resident run took %d tier hits, want 0", k-cells)
	}
	for _, r := range []*Run{first, second, third} {
		if hits, misses := r.CacheStats(); hits != first.Cells() || misses != 0 {
			t.Fatalf("%s: %d hits, %d misses", r.ID, hits, misses)
		}
		if got := servedArtifacts(t, r); got != want {
			t.Fatalf("%s: outputs differ from Plan.Run's\n%s", r.ID, diffHint(want.jsonl, got.jsonl))
		}
	}
}

// TestCorruptEntryLeavesTheTier: an entry file damaged on disk is read
// into the tier once, fails its checksum, is recomputed and stored; the
// Store drops the damaged bytes, so the next run is all hits with the
// reference bytes.
func TestCorruptEntryLeavesTheTier(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	want := cliArtifacts(t, plainCampaignSrc)
	fill := compilePlan(t, plainCampaignSrc)
	if _, err := fill.Run(campaign.RunOptions{Cache: campaign.NewDirBackend(dir)}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != len(fill.Cells) {
		t.Fatalf("cache directory holds %d files (%v), want %d", len(files), err, len(fill.Cells))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 2, Cache: campaign.NewDirBackend(dir)})
	defer shutdown(t, svc)
	cells := len(fill.Cells)
	for i, wantHits := range []int{cells - 1, cells, cells} {
		// A distinct source per run: each one renders its own artifacts.
		src := plainCampaignSrc + strings.Repeat("\n", i)
		r := runToDone(t, svc, src)
		if hits, misses := r.CacheStats(); hits != wantHits || misses != cells-wantHits {
			t.Fatalf("run %d: %d hits, %d misses; want %d and %d", i+1, hits, misses, wantHits, cells-wantHits)
		}
		if got := servedArtifacts(t, r); got != want {
			t.Fatalf("run %d: outputs differ from Plan.Run's\n%s", i+1, diffHint(want.jsonl, got.jsonl))
		}
	}
	if n, _, k := svc.hotStats(); n != cells || k != int64(2*cells-1) {
		t.Fatalf("tier holds %d entries after %d hits; want %d and %d", n, k, cells, 2*cells-1)
	}
}

// TestTierHeldEntriesStayUnchanged: the tier hands every reader the
// slice it holds (campaign.Backend's Load contract: the bytes are read
// only), so replaying cells from it twice leaves each entry as it was.
// A decoder that worked in place would fail here.
func TestTierHeldEntriesStayUnchanged(t *testing.T) {
	t.Parallel()
	be := campaign.NewDirBackend(t.TempDir())
	plan := compilePlan(t, plainCampaignSrc)
	if _, err := plan.Run(campaign.RunOptions{Cache: be}); err != nil {
		t.Fatal(err)
	}
	h := newHotTier(be, hotBudget)
	if _, err := plan.Run(campaign.RunOptions{Cache: h}); err != nil {
		t.Fatal(err)
	}
	snapshot := map[*hotEntry][]byte{}
	for el := h.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*hotEntry)
		snapshot[e] = bytes.Clone(e.data)
	}
	if len(snapshot) != len(plan.Cells) {
		t.Fatalf("tier holds %d entries, want %d", len(snapshot), len(plan.Cells))
	}
	for range 2 {
		out, err := plan.Run(campaign.RunOptions{Cache: h, Observer: obs.NewReplaySink()})
		if err != nil || out.CacheHits != len(plan.Cells) {
			t.Fatalf("replay from the tier: %v, %d hits", err, out.CacheHits)
		}
	}
	for e, want := range snapshot {
		if !bytes.Equal(e.data, want) {
			t.Fatalf("entry %s changed while cells replayed from it", e.hash)
		}
	}
}

// TestConcurrentRunsShareTheTier: a daemon's runs execute one at a time,
// but a GET of an evicted artifact set replays its source beside them.
// Here three executions share one tier too small for all their cells:
// two warm ones, replaying, and a cold one at another seed, storing.
// Each serves the reference bytes, and the tier stays within budget.
// Run it with -race.
func TestConcurrentRunsShareTheTier(t *testing.T) {
	t.Parallel()
	be := campaign.NewDirBackend(t.TempDir())
	warm, cold := atSeed(plainCampaignSrc, 1), atSeed(plainCampaignSrc, 2)
	if _, err := compilePlan(t, warm).Run(campaign.RunOptions{Cache: be}); err != nil {
		t.Fatal(err)
	}
	_, size, err := be.Stats()
	if err != nil {
		t.Fatal(err)
	}
	h := newHotTier(be, size/2)
	srcs := []string{warm, cold, warm}
	wants := make([]artifacts, len(srcs))
	for i, src := range srcs {
		wants[i] = cliArtifacts(t, src)
	}
	for round := range 3 {
		var wg sync.WaitGroup
		got := make([]artifacts, len(srcs))
		for i, src := range srcs {
			plan := compilePlan(t, src)
			wg.Add(1)
			go func() {
				defer wg.Done()
				replay := obs.NewReplaySink()
				out, err := campaign.Execute(context.Background(), plan, campaign.RunOptions{Cache: h, Observer: replay})
				if err != nil {
					t.Error(err)
					return
				}
				var set [len(outputKinds)]bytes.Buffer
				render := out.Render(replay)
				for k, section := range outputSections {
					if err := render(section, &set[k]); err != nil {
						t.Error(err)
						return
					}
				}
				got[i] = artifacts{set[0].String(), set[1].String(), set[2].String(), set[3].String()}
			}()
		}
		wg.Wait()
		for i := range srcs {
			if got[i] != wants[i] {
				t.Fatalf("round %d, execution %d: outputs differ from Plan.Run's\n%s", round, i, diffHint(wants[i].jsonl, got[i].jsonl))
			}
		}
		if _, b, _ := h.stats(); b > h.budget {
			t.Fatalf("round %d: tier holds %d bytes over its budget %d", round, b, h.budget)
		}
	}
}

// BenchmarkServeRepeat is the warm serving loop in process: through
// the daemon's HTTP handler, POST plain.campaign (80 cells, 10 trials
// each) with ?stream=1 and take the whole stream, then GET its jsonl,
// events and table, against a directory cache the campaign executor
// filled. One operation runs first, untimed, as the daemon's first
// re-serve does.
func BenchmarkServeRepeat(b *testing.B) {
	src, err := os.ReadFile("../../bench/campaigns/plain.campaign")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := campaign.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := campaign.Compile(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	be := campaign.NewDirBackend(b.TempDir())
	if _, err := plan.Run(campaign.RunOptions{Cache: be}); err != nil {
		b.Fatal(err)
	}
	svc := New(Config{Cache: be})
	defer svc.Shutdown(context.Background())
	handler := svc.Handler()
	serve := func(req *http.Request) []byte {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	op := func() {
		stream := serve(httptest.NewRequest(http.MethodPost, "/v1/runs?stream=1", bytes.NewReader(src)))
		head, _, _ := bytes.Cut(stream, []byte{'\n'})
		var run runJSON
		if err := json.Unmarshal(head, &run); err != nil {
			b.Fatal(err)
		}
		for _, kind := range []string{"jsonl", "events", "table"} {
			serve(httptest.NewRequest(http.MethodGet, "/v1/runs/"+run.ID+"/"+kind, nil))
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
}

// BenchmarkServeEvicted is the traffic the hot tier serves once re-POSTs
// are served kept streams: GETs of evicted sets. Two runs of plain.campaign
// at two seeds, over a directory cache the campaign executor filled,
// share a store that fits one set, so each GET of one run evicts the
// other's set and the next GET renders it again from the cache. One
// operation is the jsonl GET of each run. "tier" reads the cache through
// the hot tier, as the daemon does; "direct" reads the directory.
func BenchmarkServeEvicted(b *testing.B) {
	raw, err := os.ReadFile("../../bench/campaigns/plain.campaign")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var srcs []string
	for seed := 1; seed <= 2; seed++ {
		src := atSeed(string(raw), seed)
		spec, err := campaign.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := campaign.Compile(spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Run(campaign.RunOptions{Cache: campaign.NewDirBackend(dir)}); err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for _, tier := range []bool{true, false} {
		name := map[bool]string{true: "tier", false: "direct"}[tier]
		b.Run(name, func(b *testing.B) {
			be := campaign.NewDirBackend(dir)
			svc := New(Config{Cache: be})
			defer svc.Shutdown(context.Background())
			if !tier {
				svc.cache, svc.hot = be, nil
			}
			setBudget(svc, 1)
			var runs []*Run
			for _, src := range srcs {
				r, err := svc.Submit(src)
				if err != nil {
					b.Fatal(err)
				}
				<-r.Done()
				runs = append(runs, r)
			}
			op := func() {
				for _, r := range runs {
					if _, err := outputBytes(context.Background(), r, "jsonl"); err != nil {
						b.Fatal(err)
					}
				}
			}
			op()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				op()
			}
		})
	}
}
