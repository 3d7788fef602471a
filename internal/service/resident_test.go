package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// TestResidentReplayStream: once a run of a source has been served
// wholly from the cache, the next run of it takes the kept outcome, and
// so the plan it points to: it neither parses nor compiles, and reads
// neither the hot tier nor the backend. A resident re-POST streams the
// bytes the full-hit re-POST before it streamed, every event of them,
// and serves the reference artifacts.
func TestResidentReplayStream(t *testing.T) {
	t.Parallel()
	be := newProbeBackend()
	svc := New(Config{Workers: 2, Cache: be})
	defer shutdown(t, svc)
	src := plainCampaignSrc
	post := func() (*Run, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		id, events := postStream(t, svc, src, rec, rec.Body)
		r, _ := svc.Get(id)
		waitClosed(t, r.Done())
		return r, events
	}
	cold, _ := post()
	if keptOutcome(svc, src) != nil {
		t.Fatal("a run that computed its cells kept its outcome")
	}
	cells := cold.Cells()
	_, want := post()
	kept := keptOutcome(svc, src)
	if kept == nil {
		t.Fatal("the run served wholly from the cache kept no outcome")
	}
	loads := be.loadCount()
	_, _, tierHits := svc.hotStats()

	r, sub, out, err := svc.SubmitStream(src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	plan := r.plan
	r.mu.Unlock()
	if out != kept || out.Plan != kept.Plan || plan != nil || sub != nil {
		t.Fatalf("the resident run took outcome %p, compiled plan %p and subscription %p; want the kept outcome %p alone",
			out, plan, sub, kept)
	}
	resident, got := post()
	if wantEvents := 2 + cells*(3+2*5); strings.Count(got, "\n") != wantEvents { // svc-plain: 5 trials a cell
		t.Fatalf("the resident re-POST streamed %d events, want %d", strings.Count(got, "\n"), wantEvents)
	}
	if got != want {
		t.Fatalf("the resident re-POST's stream differs from the full-hit re-POST's\n%s", diffHint(want, got))
	}
	if n := be.loadCount() - loads; n != 0 {
		t.Fatalf("two resident runs read the backend %d times", n)
	}
	if _, _, k := svc.hotStats(); k != tierHits {
		t.Fatalf("two resident runs took %d tier hits, want 0", k-tierHits)
	}
	reference := cliArtifacts(t, src)
	for _, run := range []*Run{r, resident} {
		if hits, misses := run.CacheStats(); hits != cells || misses != 0 {
			t.Fatalf("%s reports %d hits, %d misses; want %d and 0", run.ID, hits, misses, cells)
		}
		if holdsPlanOrSource(run) {
			t.Fatalf("the finished %s still holds its outcome", run.ID)
		}
		if got := servedArtifacts(t, run); got != reference {
			t.Fatalf("%s's outputs differ from Plan.Run's\n%s", run.ID, diffHint(reference.jsonl, got.jsonl))
		}
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
// written from the kept outcome, so a client slower than the replay
// gets every event of a replay longer than a live feed holds (6 642
// events against 4 096), never the lag cut.
func TestResidentStreamIsWholeAtAnyPace(t *testing.T) {
	t.Parallel()
	svc := New(Config{Workers: 2})
	defer shutdown(t, svc)
	runToDone(t, svc, warmStreamSrc)
	runToDone(t, svc, warmStreamSrc)
	if keptOutcome(svc, warmStreamSrc) == nil {
		t.Fatal("the warm run kept no outcome")
	}
	client := &slowStream{}
	_, events := postStream(t, svc, warmStreamSrc, client, &client.body)
	const wantEvents = 2 + 80*(3+2*40)
	if n := strings.Count(events, "\n"); n != wantEvents || strings.Contains(events, "stream-truncated") {
		t.Fatalf("a slow client got %d of %d events (cut: %v)", n, wantEvents, strings.Contains(events, "stream-truncated"))
	}
}

// TestKeptOutcomeIsCharged: a cold run keeps no outcome; a run served
// wholly from the cache keeps one, charged to the store beside its set;
// a run that takes it is done on return, and a stream opened on that run
// is closed and costs no buffer. Evicting the set takes the outcome and
// its charge with it, and the resident run's outputs are then rendered
// again, the same bytes.
func TestKeptOutcomeIsCharged(t *testing.T) {
	t.Parallel()
	svc := New(Config{Workers: 2, Cache: newProbeBackend()})
	defer shutdown(t, svc)
	src := atSeed(plainCampaignSrc, 1)
	want := cliArtifacts(t, src)
	runToDone(t, svc, src)
	if _, size := svc.ArtifactStats(); keptOutcome(svc, src) != nil || size != want.size() {
		t.Fatalf("after a cold run: outcome kept %v, %d bytes charged; want none and %d", keptOutcome(svc, src) != nil, size, want.size())
	}
	warm := runToDone(t, svc, src)
	kept := keptOutcome(svc, src)
	if kept == nil {
		t.Fatal("the warm run kept no outcome")
	}
	charged := want.size() + outcomeSize(kept)
	if n, size := svc.ArtifactStats(); n != 1 || size != charged {
		t.Fatalf("after the warm run: %d sets, %d bytes; want 1 and %d", n, size, charged)
	}
	resident, sub, out, err := svc.SubmitStream(src, 4096)
	if err != nil || out != kept || sub != nil {
		t.Fatalf("the resident run took outcome %p and subscription %p (err %v), want the kept %p alone", out, sub, err, kept)
	}
	if state, _ := resident.State(); state != StateDone {
		t.Fatalf("the resident run is %s on return, want done", state)
	}
	if hits, misses := resident.CacheStats(); hits != warm.Cells() || misses != 0 {
		t.Fatalf("the resident run: %d hits, %d misses; want %d and 0", hits, misses, warm.Cells())
	}
	if late := resident.Subscribe(4096); cap(late.C) != 0 {
		t.Fatalf("a stream of the done resident run buffers %d events, want 0", cap(late.C))
	}

	// A budget that fits only another source's set evicts this one.
	setBudget(svc, charged)
	runToDone(t, svc, atSeed(plainCampaignSrc, 2))
	if keptOutcome(svc, src) != nil {
		t.Fatal("the outcome is still kept after its set was evicted")
	}
	otherWant := cliArtifacts(t, atSeed(plainCampaignSrc, 2))
	if n, size := svc.ArtifactStats(); n != 1 || size != otherWant.size() {
		t.Fatalf("after the eviction: %d sets, %d bytes; want the other run's 1 and %d", n, size, otherWant.size())
	}
	if got := servedArtifacts(t, resident); got != want {
		t.Fatalf("the evicted source's outputs differ from Plan.Run's\n%s", diffHint(want.jsonl, got.jsonl))
	}
}

// TestResidentRunIsNotQueued: a run that replays a kept outcome takes no
// queue slot. With the dispatcher held inside another run and the queue
// full, a run of another source is refused, and one of the resident
// source is accepted and done on return.
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

// TestOutcomeSizeFollowsTheHeap: what a kept outcome is charged is what
// keeping it holds on the heap, within a band: it leaves out size-class
// rounding and the spec's own structures. Sixteen outcomes, each from a
// plan of its own, are measured at once, so that the heap's own noise
// of a few KiB is small beside them. Not parallel: it reads the
// process's heap.
func TestOutcomeSizeFollowsTheHeap(t *testing.T) {
	for _, src := range []string{plainCampaignSrc, faultCampaignSrc} {
		be := campaign.NewMemBackend()
		if _, err := compilePlan(t, src).Run(campaign.RunOptions{Cache: be}); err != nil {
			t.Fatal(err)
		}
		outs := make([]*campaign.Outcome, 16)
		var charged int64
		for i := range outs {
			out, err := compilePlan(t, src).Run(campaign.RunOptions{Cache: be})
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = out
			charged += outcomeSize(out)
		}
		held := int64(heapAfterGC())
		runtime.KeepAlive(outs)
		outs = nil
		held -= int64(heapAfterGC())
		t.Logf("charged %d B for outcomes that hold %d B", charged, held)
		if float64(charged) < 0.6*float64(held) || float64(charged) > 1.1*float64(held) {
			t.Fatalf("charged %d B for outcomes that hold %d B, want 60 to 110 %%", charged, held)
		}
	}
}
