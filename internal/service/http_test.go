package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// startTestServer boots a service with its HTTP API on an httptest
// server, both torn down with the test.
func startTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

func postCampaign(t *testing.T, ts *httptest.Server, src string) runJSON {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: status %d", resp.StatusCode)
	}
	var r runJSON
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return r
}

func getBody(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHTTPEndToEnd: POST a campaign, stream its progress to completion,
// then fetch every artifact and compare byte-for-byte with the CLI run
// — the served-run determinism contract over the real HTTP stack.
func TestHTTPEndToEnd(t *testing.T) {
	t.Parallel()
	want := cliArtifacts(t, faultCampaignSrc)
	// Gate the run's first cache probe so the progress stream provably
	// attaches before any trial executes (a POSTed campaign this small
	// would otherwise finish before the GET).
	gate := &gateBackend{
		Backend: campaign.NewMemBackend(),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	svc, ts := startTestServer(t, Config{Workers: 4, Cache: gate})

	posted := postCampaign(t, ts, faultCampaignSrc)
	if posted.ID == "" || posted.Cells != 8 || posted.Name != "svc-fault" {
		t.Fatalf("POST response: %+v", posted)
	}

	// Stream to completion: the body is chunked JSONL that ends when the
	// run does. http.Get returns once the handler has subscribed and
	// sent headers, so releasing the gate after it cannot lose events.
	<-gate.hit
	resp, err := http.Get(ts.URL + posted.Stream)
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	lines := 0
	trialFinishes := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("stream line %d not JSON: %q", lines, sc.Text())
		}
		if obj["ev"] == "trial-finish" {
			trialFinishes++
		}
		lines++
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if trialFinishes != 8*3 {
		t.Fatalf("stream carried %d trial-finish events, want %d", trialFinishes, 8*3)
	}

	// The stream closing means the run is terminal.
	r, ok := svc.Get(posted.ID)
	if !ok {
		t.Fatal("run vanished")
	}
	<-r.Done()
	var status runJSON
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/runs/"+posted.ID, 200)), &status); err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone || status.Misses != 8 {
		t.Fatalf("terminal status: %+v", status)
	}

	got := artifacts{
		jsonl:  getBody(t, ts.URL+"/v1/runs/"+posted.ID+"/jsonl", 200),
		events: getBody(t, ts.URL+"/v1/runs/"+posted.ID+"/events", 200),
		table:  getBody(t, ts.URL+"/v1/runs/"+posted.ID+"/table", 200),
		csv:    getBody(t, ts.URL+"/v1/runs/"+posted.ID+"/csv", 200),
	}
	if got != want {
		t.Fatal("served artifacts differ from the CLI run")
	}
	if !strings.HasPrefix(got.csv, "cell,key,trials") {
		t.Fatalf("CSV output: %q", got.csv[:min(len(got.csv), 60)])
	}

	// Second POST of the same spec: all cells hit the shared backend,
	// bytes unchanged.
	second := postCampaign(t, ts, faultCampaignSrc)
	r2, _ := svc.Get(second.ID)
	<-r2.Done()
	if hits, misses := r2.CacheStats(); hits != 8 || misses != 0 {
		t.Fatalf("second run: %d hits, %d misses", hits, misses)
	}
	if warm := getBody(t, ts.URL+"/v1/runs/"+second.ID+"/jsonl", 200); warm != want.jsonl {
		t.Fatal("warm served JSONL differs")
	}

	// A stream opened after completion ends immediately, no hang.
	if late := getBody(t, ts.URL+posted.Stream, 200); late != "" {
		t.Fatalf("late stream returned data: %q", late)
	}

	// Registry and cache endpoints.
	var list []runJSON
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/runs", 200)), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != posted.ID {
		t.Fatalf("run list: %+v", list)
	}
	var cache struct {
		Entries         int   `json:"entries"`
		Bytes           int64 `json:"bytes"`
		ArtifactEntries int   `json:"artifact_entries"`
		ArtifactBytes   int64 `json:"artifact_bytes"`
		RenderedEntries int   `json:"rendered_entries"`
		RenderedBytes   int64 `json:"rendered_bytes"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/cache", 200)), &cache); err != nil {
		t.Fatal(err)
	}
	if cache.Entries != 8 || cache.Bytes <= 0 {
		t.Fatalf("cache stats: %+v", cache)
	}
	// Two runs of one source: one stored entry, charged what it serves plus
	// the stream of the second run, read wholly from the cache.
	kept := keptStream(svc, faultCampaignSrc)
	if kept == nil || cache.ArtifactEntries != 1 || cache.ArtifactBytes != entrySize(want, kept, "svc-fault", r2.Cells()) ||
		cache.RenderedEntries != 1 || cache.RenderedBytes != cache.ArtifactBytes {
		t.Fatalf("artifact store stats: %+v, want 1 entry of %d bytes and a kept stream", cache, want.size())
	}
	if !strings.Contains(getBody(t, ts.URL+"/v1/healthz", 200), `"ok":true`) {
		t.Fatal("healthz")
	}
}

// TestHTTPSubmitStream: POST /v1/runs?stream=1 subscribes before the
// run is enqueued, so the response carries the run's complete progress
// — no gate needed, unlike a separate GET of the stream.
func TestHTTPSubmitStream(t *testing.T) {
	t.Parallel()
	_, ts := startTestServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/runs?stream=1", "text/plain", strings.NewReader(plainCampaignSrc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no head line")
	}
	var head runJSON
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("head line not a run object: %q", sc.Text())
	}
	if head.ID == "" || head.Cells != 8 {
		t.Fatalf("head: %+v", head)
	}
	trialFinishes := 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("stream line not JSON: %q", sc.Text())
		}
		if obj["ev"] == "trial-finish" {
			trialFinishes++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Lossless by construction: every trial of every cell is present
	// (svc-plain: 8 cells × 5 trials).
	if trialFinishes != 8*5 {
		t.Fatalf("POST stream carried %d trial-finish events, want %d", trialFinishes, 8*5)
	}

	// A bad spec on the stream form still fails with a JSON error.
	resp, err = http.Post(ts.URL+"/v1/runs?stream=1", "text/plain", strings.NewReader("campaign broken\nnonsense\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec via stream form: status %d", resp.StatusCode)
	}
}

// TestHTTPErrors: the API's failure surface.
func TestHTTPErrors(t *testing.T) {
	t.Parallel()
	_, ts := startTestServer(t, Config{Workers: 1})

	// Bad spec: rejected at the POST.
	resp, err := http.Post(ts.URL+"/v1/runs", "text/plain", strings.NewReader("campaign broken\nnonsense directive\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", resp.StatusCode)
	}

	// Oversized spec.
	big := strings.Repeat("# padding\n", maxSpecBytes/10+1)
	resp, err = http.Post(ts.URL+"/v1/runs", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d", resp.StatusCode)
	}

	getBody(t, ts.URL+"/v1/runs/run-9999", http.StatusNotFound)
	getBody(t, ts.URL+"/v1/runs/run-9999/jsonl", http.StatusNotFound)

	// An unknown artifact name is a 404 whatever the run's state; a known
	// one is 409 until the run is done and 500 on a failed run.
	gate := &gateBackend{
		Backend: campaign.NewMemBackend(),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	key := compilePlan(t, plainCampaignSrc).Cells[0].Key
	svc, ts := startTestServer(t, bombed(Config{Cache: gate, Workers: 1}, newBomb(key)))
	failing := postCampaign(t, ts, plainCampaignSrc) // dispatcher blocks in its cache pass
	<-gate.hit
	queued := postCampaign(t, ts, plainCampaignSrc)
	for _, id := range []string{failing.ID, queued.ID} { // running, queued
		getBody(t, ts.URL+"/v1/runs/"+id+"/nonsense", http.StatusNotFound)
		getBody(t, ts.URL+"/v1/runs/"+id+"/jsonl", http.StatusConflict)
	}
	close(gate.release)
	for _, id := range []string{failing.ID, queued.ID} {
		r, _ := svc.Get(id)
		waitClosed(t, r.Done())
	}
	getBody(t, ts.URL+"/v1/runs/"+failing.ID+"/nonsense", http.StatusNotFound)
	if body := getBody(t, ts.URL+"/v1/runs/"+failing.ID+"/jsonl", http.StatusInternalServerError); !strings.Contains(body, "panicked") {
		t.Fatalf("GET of a failed run's output: %q, want the run's error", body)
	}
	getBody(t, ts.URL+"/v1/runs/"+queued.ID+"/nonsense", http.StatusNotFound)
	getBody(t, ts.URL+"/v1/runs/"+queued.ID+"/jsonl", http.StatusOK)
}

// TestHTTPSubmitRefusals: a submit the service could not take — full
// queue, shutting down — is a 503 on both POST forms, told from a bad
// spec's 400 by the error's type, not its wording.
func TestHTTPSubmitRefusals(t *testing.T) {
	t.Parallel()
	gate := &gateBackend{
		Backend: campaign.NewMemBackend(),
		hit:     make(chan struct{}),
		release: make(chan struct{}),
	}
	svc, ts := startTestServer(t, Config{Cache: gate, Workers: 1, QueueDepth: 1})
	if _, err := svc.Submit(plainCampaignSrc); err != nil { // dispatcher blocks in its cache pass
		t.Fatal(err)
	}
	<-gate.hit
	if _, err := svc.Submit(plainCampaignSrc); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := svc.Submit(plainCampaignSrc); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit beyond the queue depth: %v, want ErrQueueFull", err)
	}
	post := func(path, what string, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(plainCampaignSrc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s with %s: status %d, want %d", path, what, resp.StatusCode, want)
		}
	}
	post("/v1/runs", "a full queue", http.StatusServiceUnavailable)
	post("/v1/runs?stream=1", "a full queue", http.StatusServiceUnavailable)

	close(gate.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(plainCampaignSrc); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Shutdown: %v, want ErrShuttingDown", err)
	}
	post("/v1/runs", "the service shut down", http.StatusServiceUnavailable)
	post("/v1/runs?stream=1", "the service shut down", http.StatusServiceUnavailable)
}
