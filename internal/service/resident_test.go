package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// postStream POSTs src with ?stream=1 through the service's handler
// into w and returns the run's id and the stream after its head line.
func postStream(t *testing.T, svc *Service, src string, w http.ResponseWriter, body *bytes.Buffer) (string, string) {
	t.Helper()
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs?stream=1", strings.NewReader(src)))
	head, events, _ := bytes.Cut(body.Bytes(), []byte{'\n'})
	var run runJSON
	if err := json.Unmarshal(head, &run); err != nil {
		t.Fatalf("head line %q: %v", head, err)
	}
	return run.ID, string(events)
}

// contentLength is rec's Content-Length header, or -1 when it has none.
func contentLength(t *testing.T, rec *httptest.ResponseRecorder) int {
	t.Helper()
	v := rec.Header().Get("Content-Length")
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("Content-Length %q: %v", v, err)
	}
	return n
}

// TestResidentReplayStream: the stream a cold run keeps in its entry is
// the one a full-hit re-POST streams live, byte for byte; and once an
// entry keeps it, the next run of the source takes that stream: it loads
// no cell entry, gets no subscription, and is handed the kept bytes
// themselves. A resident re-POST's body has a Content-Length equal to
// its bytes; after its head line it is the stream the full-hit re-POST
// before it streamed live, every event of it, byte for byte. Its four
// artifact GETs carry a Content-Length too, and serve the reference
// bytes.
func TestResidentReplayStream(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 2, Cache: be})
	defer shutdown(t, svc)
	src := plainCampaignSrc
	post := func() (*Run, *httptest.ResponseRecorder, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		id, events := postStream(t, svc, src, rec, rec.Body)
		r, _ := svc.Get(id)
		waitClosed(t, r.Done())
		return r, rec, events
	}
	cold, _, _ := post()
	coldKept := keptStream(svc, src)
	if coldKept == nil {
		t.Fatal("the cold run kept no stream")
	}
	cells := cold.Cells()
	dropKept(svc, src) // the next re-POST executes against the cache
	_, live, want := post()
	if n := contentLength(t, live); n != -1 {
		t.Fatalf("a live stream declared Content-Length %d", n)
	}
	if string(coldKept) != want {
		t.Fatalf("the cold run kept another stream than a full-hit run streams\n%s", diffHint(want, string(coldKept)))
	}
	kept := keptStream(svc, src)
	if kept == nil || string(kept) != want {
		t.Fatalf("the run served wholly from the cache kept %v, want its own stream", kept != nil)
	}
	loads := be.loadCount()

	r, sub, stream, err := svc.SubmitStream(src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if stream == nil || stream.Len() != int64(len(kept)) || sub != nil {
		t.Fatalf("the resident run took a stream (%v) and subscription %p; want the kept stream alone", stream != nil, sub)
	}
	if got, err := io.ReadAll(stream); err != nil || string(got) != string(kept) {
		t.Fatalf("the resident run's stream is not the kept bytes (err %v)", err)
	}
	stream.Close()
	if state, _ := r.State(); state != StateDone || r.Name() != "svc-plain" || r.Cells() != cells {
		t.Fatalf("the resident run is %s, %q of %d cells on return; want done, svc-plain of %d", state, r.Name(), r.Cells(), cells)
	}
	resident, rec, got := post()
	if n := contentLength(t, rec); n != rec.Body.Len() {
		t.Fatalf("the resident re-POST declared Content-Length %d for a body of %d bytes", n, rec.Body.Len())
	}
	if wantEvents := 2 + cells*(3+2*5); strings.Count(got, "\n") != wantEvents { // svc-plain: 5 trials a cell
		t.Fatalf("the resident re-POST streamed %d events, want %d", strings.Count(got, "\n"), wantEvents)
	}
	if got != want {
		t.Fatalf("the resident re-POST's stream differs from the full-hit re-POST's\n%s", diffHint(want, got))
	}
	if n := be.loadCount() - loads; n != 0 {
		t.Fatalf("two resident runs read the backend %d times", n)
	}
	reference := cliArtifacts(t, src)
	for _, run := range []*Run{r, resident} {
		if hits, misses := run.CacheStats(); hits != cells || misses != 0 {
			t.Fatalf("%s reports %d hits, %d misses; want %d and 0", run.ID, hits, misses, cells)
		}
		if holdsPlanOrSource(run) {
			t.Fatalf("the finished %s still holds a plan or a source", run.ID)
		}
		if got := servedArtifacts(t, run); got != reference {
			t.Fatalf("%s's outputs differ from Plan.Run's\n%s", run.ID, diffHint(reference.jsonl, got.jsonl))
		}
	}
	want4 := [...]string{reference.jsonl, reference.events, reference.table, reference.csv}
	for i, kind := range outputKinds {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+resident.ID+"/"+kind, nil))
		if rec.Code != http.StatusOK || rec.Body.String() != want4[i] {
			t.Fatalf("GET %s: status %d, reference bytes %v", kind, rec.Code, rec.Body.String() == want4[i])
		}
		if n := contentLength(t, rec); n != rec.Body.Len() {
			t.Fatalf("GET %s declared Content-Length %d for %d bytes", kind, n, rec.Body.Len())
		}
	}
}

// discardWriter is a ResponseWriter that allocates nothing of its own:
// it keeps one header map and counts the body bytes.
type discardWriter struct {
	header http.Header
	bytes  int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// allocatedPerOp is the heap bytes each of n calls of op allocates.
func allocatedPerOp(n int, op func(i int)) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// residentPostBytes bounds what one resident re-POST of plainCampaignSrc
// allocates beyond its response writer: the request's body, the run and
// its registration, and the head line. Measured at about 2.1 KiB on
// amd64, against 7.1 KiB for a Parse and a Compile of the source (2.4
// for the Parse alone) and a stream of 8.6 KiB; the test requires the
// bound under both of those, so that neither a compile nor an encoding
// of the stream fits in it.
const residentPostBytes = 4 << 10

// TestResidentRePostAllocations: a resident re-POST calls neither Parse
// nor Compile and encodes no event: it writes the kept bytes, and what
// it allocates stays under residentPostBytes. Not parallel: it reads the
// process's allocation count.
func TestResidentRePostAllocations(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer shutdown(t, svc)
	src := plainCampaignSrc
	runToDone(t, svc, src)
	runToDone(t, svc, src)
	kept := keptStream(svc, src)
	if kept == nil {
		t.Fatal("the source's entry keeps no stream")
	}
	const n = 100
	reqs := make([]*http.Request, n+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/runs?stream=1", strings.NewReader(src))
	}
	handler := svc.Handler()
	w := &discardWriter{header: http.Header{}}
	handler.ServeHTTP(w, reqs[n]) // the registry's first growth, untimed
	w.bytes = 0
	perPost := allocatedPerOp(n, func(i int) { handler.ServeHTTP(w, reqs[i]) })
	perCompile := allocatedPerOp(n, func(int) {
		spec, err := campaign.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := campaign.Compile(spec, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a resident re-POST allocates %d B; a Parse and a Compile %d B; the stream is %d B", perPost, perCompile, len(kept))
	if perPost > residentPostBytes || perCompile <= residentPostBytes || len(kept) <= residentPostBytes {
		t.Fatalf("a resident re-POST allocated %d B, want under %d B, itself under a Parse and Compile's %d B and the stream's %d B",
			perPost, residentPostBytes, perCompile, len(kept))
	}
	if w.bytes < n*len(kept) {
		t.Fatalf("%d resident re-POSTs wrote %d bytes, want %d streams of %d", n, w.bytes, n, len(kept))
	}
}

// slowStream is a client that takes a millisecond over every write.
type slowStream struct{ body bytes.Buffer }

func (s *slowStream) Header() http.Header { return http.Header{} }
func (s *slowStream) WriteHeader(int)     {}
func (s *slowStream) Flush()              {}
func (s *slowStream) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.body.Write(p)
}

// TestResidentStreamIsWholeAtAnyPace: a resident re-POST's stream is
// written from the kept bytes, so a client slower than the replay gets
// every event of a replay longer than a live feed holds (6 642 events
// against 4 096), never the lag cut.
func TestResidentStreamIsWholeAtAnyPace(t *testing.T) {
	t.Parallel()
	svc := New(Config{Workers: 2})
	defer shutdown(t, svc)
	runToDone(t, svc, warmStreamSrc)
	runToDone(t, svc, warmStreamSrc)
	if keptStream(svc, warmStreamSrc) == nil {
		t.Fatal("the source's entry keeps no stream")
	}
	client := &slowStream{}
	_, events := postStream(t, svc, warmStreamSrc, client, &client.body)
	const wantEvents = 2 + 80*(3+2*40)
	if n := strings.Count(events, "\n"); n != wantEvents || strings.Contains(events, "stream-truncated") {
		t.Fatalf("a slow client got %d of %d events (cut: %v)", n, wantEvents, strings.Contains(events, "stream-truncated"))
	}
}

// TestKeptStreamIsCharged: a cold run keeps its stream in the source's
// rendered entry, and the store is charged exactly the entry's length:
// the sections, the stream and the entry's head and trailer. A run that
// takes the kept stream is done on return, and a stream opened on that
// run is closed and costs no buffer. Evicting the entry takes the kept
// stream and its charge with it, and the resident run's outputs are then
// rendered again, the same bytes.
func TestKeptStreamIsCharged(t *testing.T) {
	t.Parallel()
	svc := New(Config{Workers: 2, Cache: newProbeBackend()})
	defer shutdown(t, svc)
	src := atSeed(plainCampaignSrc, 1)
	want := cliArtifacts(t, src)
	cold := runToDone(t, svc, src)
	stream := string(keptStream(svc, src))
	if stream == "" {
		t.Fatal("the cold run kept no stream")
	}
	charged := entrySize(want, []byte(stream), "svc-plain", cold.Cells())
	if n, size := svc.ArtifactStats(); n != 1 || size != charged {
		t.Fatalf("after the cold run: %d entries, %d bytes; want 1 and %d (the sections' %d, the stream's %d)",
			n, size, charged, want.size(), len(stream))
	}
	resident, sub, got, err := svc.SubmitStream(src, 4096)
	if err != nil || got == nil || sub != nil {
		t.Fatalf("the resident run took a stream (%v) and subscription %p (err %v), want the stream alone", got != nil, sub, err)
	}
	if data, err := io.ReadAll(got); err != nil || string(data) != stream {
		t.Fatalf("the resident run's stream is not the cold run's (err %v)", err)
	}
	got.Close()
	if state, _ := resident.State(); state != StateDone {
		t.Fatalf("the resident run is %s on return, want done", state)
	}
	if hits, misses := resident.CacheStats(); hits != cold.Cells() || misses != 0 {
		t.Fatalf("the resident run: %d hits, %d misses; want %d and 0", hits, misses, cold.Cells())
	}
	if late := resident.Subscribe(4096); cap(late.C) != 0 {
		t.Fatalf("a stream of the done resident run buffers %d events, want 0", cap(late.C))
	}

	// A budget that fits only another source's entry evicts this one.
	setBudget(svc, charged)
	other := runToDone(t, svc, atSeed(plainCampaignSrc, 2))
	if keptStream(svc, src) != nil {
		t.Fatal("the stream is still kept after its entry was evicted")
	}
	otherWant := cliArtifacts(t, atSeed(plainCampaignSrc, 2))
	otherSize := entrySize(otherWant, keptStream(svc, atSeed(plainCampaignSrc, 2)), "svc-plain", other.Cells())
	if n, size := svc.ArtifactStats(); n != 1 || size != otherSize {
		t.Fatalf("after the eviction: %d entries, %d bytes; want the other run's 1 and %d", n, size, otherSize)
	}
	if got := servedArtifacts(t, resident); got != want {
		t.Fatalf("the evicted source's outputs differ from Plan.Run's\n%s", diffHint(want.jsonl, got.jsonl))
	}
}

// TestResidentRunIsNotQueued: a run of a source with a kept stream takes
// no queue slot. With the dispatcher held inside another run and the
// queue full, a run of another source is refused, and one of the
// resident source is accepted and done on return.
func TestResidentRunIsNotQueued(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 2, Cache: be, QueueDepth: 1})
	defer shutdown(t, svc)
	src := atSeed(plainCampaignSrc, 1)
	runToDone(t, svc, src)
	runToDone(t, svc, src)
	entered, release := be.blockNextLoad()
	defer release()
	if _, err := svc.Submit(atSeed(plainCampaignSrc, 2)); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, entered)
	if _, err := svc.Submit(atSeed(plainCampaignSrc, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(atSeed(plainCampaignSrc, 4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a new source with the queue full: %v, want %v", err, ErrQueueFull)
	}
	r, err := svc.Submit(src)
	if err != nil {
		t.Fatalf("the resident source with the queue full: %v", err)
	}
	if state, _ := r.State(); state != StateDone || r.ID != "run-0005" {
		t.Fatalf("the resident run is %s %s on return, want run-0005 done", r.ID, state)
	}
}
