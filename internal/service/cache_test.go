package service

import (
	"bytes"
	"context"
	"encoding/json"
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

// TestCorruptEntryIsRewritten: a daemon over a directory the campaign
// executor filled, one of whose cell entry files is damaged on disk. The
// first run reads the damaged entry, fails its checksum, recomputes the
// cell and stores it; the runs after it are all hits. Every run serves
// the reference bytes, and the file on disk is the entry the executor
// first wrote.
func TestCorruptEntryIsRewritten(t *testing.T) {
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
	entry, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Clone(entry)
	damaged[len(damaged)/2] ^= 0xff
	if err := os.WriteFile(files[0], damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 2, Cache: campaign.NewDirBackend(dir)})
	defer shutdown(t, svc)
	cells := len(fill.Cells)
	for i, wantHits := range []int{cells - 1, cells, cells} {
		// A distinct source per run: each one executes and writes its own
		// rendered entry.
		src := plainCampaignSrc + strings.Repeat("\n", i)
		r := runToDone(t, svc, src)
		if hits, misses := r.CacheStats(); hits != wantHits || misses != cells-wantHits {
			t.Fatalf("run %d: %d hits, %d misses; want %d and %d", i+1, hits, misses, wantHits, cells-wantHits)
		}
		if got := servedArtifacts(t, r); got != want {
			t.Fatalf("run %d: outputs differ from Plan.Run's\n%s", i+1, diffHint(want.jsonl, got.jsonl))
		}
	}
	if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, entry) {
		t.Fatalf("the damaged entry was not rewritten on disk (%v)", err)
	}
}

// TestConcurrentRunsShareTheCache: a daemon's runs execute one at a
// time, but a GET of an evicted artifact set runs its source beside
// them, over the same backend. Here three executions share one directory
// backend: two warm ones, replaying, and a cold one at another seed,
// storing. Each serves the reference bytes. Run it with -race.
func TestConcurrentRunsShareTheCache(t *testing.T) {
	t.Parallel()
	be := campaign.NewDirBackend(t.TempDir())
	warm, cold := atSeed(plainCampaignSrc, 1), atSeed(plainCampaignSrc, 2)
	if _, err := compilePlan(t, warm).Run(campaign.RunOptions{Cache: be}); err != nil {
		t.Fatal(err)
	}
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
				out, err := campaign.Execute(context.Background(), plan, campaign.RunOptions{Cache: be, Observer: replay})
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

// BenchmarkServeEvicted is the GET traffic of evicted entries: two runs
// of plain.campaign at two seeds, over a directory cache the campaign
// executor filled, share a store that fits one entry, so each GET of one
// run evicts the other's entry and the next GET writes it again from the
// cell entries on disk. One operation is the jsonl GET of each run.
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
	svc := New(Config{Cache: campaign.NewDirBackend(dir)})
	defer svc.Shutdown(context.Background())
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
}
