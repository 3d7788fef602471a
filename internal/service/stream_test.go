package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// streamRecorder is a ResponseWriter+Flusher that keeps what
// streamEvents did to it, in order: one entry per Write (its bytes) and
// one nil entry per Flush. flushed, when non-nil, is signalled after
// every Flush.
type streamRecorder struct {
	mu      sync.Mutex
	ops     [][]byte
	flushed chan struct{}
}

func (r *streamRecorder) Header() http.Header { return http.Header{} }
func (r *streamRecorder) WriteHeader(int)     {}

func (r *streamRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.ops = append(r.ops, bytes.Clone(p))
	r.mu.Unlock()
	return len(p), nil
}

func (r *streamRecorder) Flush() {
	r.mu.Lock()
	r.ops = append(r.ops, nil)
	r.mu.Unlock()
	if r.flushed != nil {
		r.flushed <- struct{}{}
	}
}

// writes returns the recorded Writes after checking the shape every
// stream has: the header flush first, then each Write followed by
// exactly one Flush.
func (r *streamRecorder) writes(t *testing.T) [][]byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ops) == 0 || r.ops[0] != nil {
		t.Fatalf("stream did not start with the header flush: %d ops", len(r.ops))
	}
	var out [][]byte
	for i := 1; i < len(r.ops); i += 2 {
		if r.ops[i] == nil || i+1 >= len(r.ops) || r.ops[i+1] != nil {
			t.Fatalf("op %d: want a Write followed by one Flush", i)
		}
		out = append(out, r.ops[i])
	}
	return out
}

// streamEvent is the i-th test event; its key pads a line to about
// 100 bytes so a few hundred of them pass streamCap.
func streamEvent(i int) obs.Event {
	return obs.Event{Kind: obs.KindCellStart, Cell: i, Key: fmt.Sprintf("cell-%04d|%s", i, strings.Repeat("k", 60)), Trial: -1}
}

func streamLines(lo, hi int) string {
	var buf []byte
	for i := lo; i < hi; i++ {
		buf = append(streamEvent(i).AppendJSON(buf), '\n')
	}
	return string(buf)
}

func streamRequest() *http.Request {
	return httptest.NewRequest("GET", "/v1/runs/run-0001/stream", nil)
}

// TestLateStreamAllocatesNoBuffer: a stream opened after its run
// finished writes no line, and so allocates neither a feed nor a write
// buffer: a few hundred bytes, not the 40 KiB a stream's first line
// makes. Not parallel: it reads the process's allocation count.
func TestLateStreamAllocatesNoBuffer(t *testing.T) {
	bc := obs.NewBroadcast()
	bc.Close()
	req := streamRequest()
	w := &countingWriter{}
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		streamEvents(w, req, bc.Subscribe(4096))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1024 || w.writes != 0 {
		t.Fatalf("a late stream allocated %d B and wrote %d times, want under 1 KiB and none", per, w.writes)
	}
}

// TestStreamEventsBurst: events already queued when the handler gets to
// them leave in one Write and one Flush.
func TestStreamEventsBurst(t *testing.T) {
	const k = 50
	bc := obs.NewBroadcast()
	sub := bc.Subscribe(4096)
	for i := 0; i < k; i++ {
		bc.Observe(streamEvent(i))
	}
	bc.Close()
	rec := &streamRecorder{}
	streamEvents(rec, streamRequest(), sub)
	writes := rec.writes(t)
	if len(writes) != 1 || string(writes[0]) != streamLines(0, k) {
		t.Fatalf("%d pre-queued events left in %d writes, want one write holding all %d lines", k, len(writes), k)
	}
}

// TestStreamEventsIdleFeedIsImmediate: an event that arrives while the
// handler is waiting is written and flushed before the next one is even
// sent — bursting adds no latency to a live feed.
func TestStreamEventsIdleFeedIsImmediate(t *testing.T) {
	bc := obs.NewBroadcast()
	sub := bc.Subscribe(4096)
	rec := &streamRecorder{flushed: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		streamEvents(rec, streamRequest(), sub)
	}()
	wait := func(what string) {
		t.Helper()
		select {
		case <-rec.flushed:
		case <-time.After(10 * time.Second):
			t.Fatalf("no flush for %s", what)
		}
	}
	wait("the headers")
	const k = 5
	for i := 0; i < k; i++ {
		bc.Observe(streamEvent(i))
		wait(fmt.Sprintf("event %d", i))
	}
	bc.Close()
	<-done
	writes := rec.writes(t)
	if len(writes) != k {
		t.Fatalf("%d events on an idle feed left in %d writes, want one each", k, len(writes))
	}
	for i, w := range writes {
		if string(w) != streamLines(i, i+1) {
			t.Fatalf("write %d = %q, want event %d alone", i, w, i)
		}
	}
}

// TestStreamEventsSplitsAtCap: a burst larger than streamCap is split,
// each write ending with the line that crossed the cap, order kept.
func TestStreamEventsSplitsAtCap(t *testing.T) {
	const k = 1200 // about 130 KiB of lines
	bc := obs.NewBroadcast()
	sub := bc.Subscribe(4096)
	for i := 0; i < k; i++ {
		bc.Observe(streamEvent(i))
	}
	bc.Close()
	rec := &streamRecorder{}
	streamEvents(rec, streamRequest(), sub)
	writes := rec.writes(t)
	want := streamLines(0, k)
	lineMax := len(streamLines(k-1, k))
	if min := len(want) / (streamCap + lineMax); len(writes) <= min || len(writes) > len(want)/streamCap+1 {
		t.Fatalf("%d bytes left in %d writes, want them split at %d", len(want), len(writes), streamCap)
	}
	var got []byte
	for i, w := range writes {
		if len(w) >= streamCap+lineMax {
			t.Fatalf("write %d holds %d bytes, cap is %d plus one line", i, len(w), streamCap)
		}
		if i < len(writes)-1 && len(w) < streamCap {
			t.Fatalf("write %d holds %d bytes with more queued behind it, want >= %d", i, len(w), streamCap)
		}
		if w[len(w)-1] != '\n' {
			t.Fatalf("write %d ends mid-line", i)
		}
		got = append(got, w...)
	}
	if string(got) != want {
		t.Fatal("split writes do not concatenate to the events in order")
	}
}

// TestStreamEventsLaggedMidDrain: a feed cut for lag while events are
// still queued delivers those, then the truncation line, then nothing.
func TestStreamEventsLaggedMidDrain(t *testing.T) {
	const buffered = 8
	bc := obs.NewBroadcast()
	sub := bc.Subscribe(buffered)
	for i := 0; i <= buffered; i++ { // one more than fits: the feed is cut
		bc.Observe(streamEvent(i))
	}
	if !sub.Lagged() {
		t.Fatal("subscription not cut")
	}
	bc.Observe(streamEvent(99)) // after the cut: goes nowhere
	rec := &streamRecorder{}
	streamEvents(rec, streamRequest(), sub)
	writes := rec.writes(t)
	if want := streamLines(0, buffered) + streamTruncated; len(writes) != 1 || string(writes[0]) != want {
		t.Fatalf("lagged feed left %q, want the %d buffered lines then the truncation line", writes, buffered)
	}
}

// warmStreamSrc is 80 cells of 40 trials on graphs small enough to fill
// the cache in well under a second; served warm it replays
// 2 + 80×(3 + 2×40) = 6 642 events as fast as the dispatcher can emit
// them, past the 4 096-event subscription buffer.
const warmStreamSrc = `campaign svc-warm-stream
seed 2009
trials 40
max-steps 100000
graph path 6
graph cycle 6
graph star 6
graph grid 6
graph complete 5
protocol coloring mis matching bfstree
daemon random-subset synchronous central-random laziest-fair
metrics silent legitimate rounds
`

// writeCounter counts the body writes a handler issues on the real
// ResponseWriter it wraps.
type writeCounter struct {
	http.ResponseWriter
	writes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.ResponseWriter.Write(p)
}

func (c writeCounter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestWarmStreamIsComplete: over real TCP, a fully cached re-POST
// streams every event and no truncation line, in a small fraction of
// the writes a write per event would take. What it pins is that a
// handler which gets to run keeps ahead of the replay. It cannot pin
// when the scheduler first runs the handler: on a small or busy machine
// that can take longer than the whole sub-millisecond replay, and the
// lag cut that follows is by design. So the POST is repeated until one
// stream is complete. A run that writes its source's entry keeps its
// stream there, and a run served a kept stream is copied from the
// entry, never from the feed; so the entry is removed before every POST,
// and each attempt streams the live feed of a full-hit Execute.
func TestWarmStreamIsComplete(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P runs the whole replay before the handler is scheduled")
	}
	svc := New(Config{Workers: 2, Cache: campaign.NewDirBackend(t.TempDir())})
	var writes atomic.Int64
	handler := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		handler.ServeHTTP(writeCounter{w, &writes}, req)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	cold, err := svc.Submit(warmStreamSrc)
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, cold.Done())
	if state, err := cold.State(); state != StateDone {
		t.Fatalf("cold run: state %s, err %v", state, err)
	}
	const wantEvents = 2 + 80*(3+2*40)
	const attempts = 50
	for attempt := 1; ; attempt++ {
		writes.Store(0)
		dropKept(svc, warmStreamSrc)
		if keptStream(svc, warmStreamSrc) != nil {
			t.Fatal("the kept stream was not dropped: the re-POST would not use the feed")
		}
		resp, err := http.Post(ts.URL+"/v1/runs?stream=1", "text/plain", strings.NewReader(warmStreamSrc))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		run := svc.Runs()[attempt]
		waitClosed(t, run.Done()) // a cut stream ends before its run does
		if hits, misses := run.CacheStats(); hits != 80 || misses != 0 {
			t.Fatalf("re-POST %d was not warm: %d hits, %d misses", attempt, hits, misses)
		}
		events := bytes.Count(body, []byte{'\n'}) - 1 // minus the head line
		if !bytes.Contains(body, []byte("stream-truncated")) {
			if events != wantEvents {
				t.Fatalf("uncut warm stream carried %d events, want %d", events, wantEvents)
			}
			// Measured: 19 to 97 writes, -race included.
			if n := writes.Load(); n > wantEvents/8 {
				t.Fatalf("warm stream of %d events took %d body writes, want bursts", wantEvents, n)
			}
			return
		}
		if attempt == attempts {
			t.Fatalf("all %d warm streams were cut; the last after %d of %d events", attempts, events-1, wantEvents)
		}
	}
}

// BenchmarkStreamEvents: the handler's cost for one warm plain.campaign
// POST — 1 842 replayed events queued faster than they can be written.
func BenchmarkStreamEvents(b *testing.B) {
	const events = 1842
	ev := obs.Event{Kind: obs.KindTrialFinish, Cell: 7, Trial: 3, Silent: true, Legit: true, Step: 12345, Round: 67}
	req := streamRequest()
	var bytesOut, writes int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bc := obs.NewBroadcast()
		sub := bc.Subscribe(4096)
		for j := 0; j < events; j++ {
			bc.Observe(ev)
		}
		bc.Close()
		rec := &countingWriter{}
		b.StartTimer()
		streamEvents(rec, req, sub)
		bytesOut, writes = rec.bytes, rec.writes
	}
	b.ReportMetric(float64(bytesOut), "bytes/op")
	b.ReportMetric(float64(writes), "writes/op")
}

// countingWriter is a ResponseWriter+Flusher that only counts.
type countingWriter struct{ bytes, writes int }

func (w *countingWriter) Header() http.Header { return http.Header{} }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Flush()              {}
func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	w.writes++
	return len(p), nil
}
