package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// maxSpecBytes bounds a POSTed campaign source (specs are small text
// files; a megabyte is generous).
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/runs               submit a .campaign source (body), 202 + run JSON
//	POST /v1/runs?stream=1      submit and stream: run JSON line, then every progress event
//	GET  /v1/runs               list runs in submission order
//	GET  /v1/runs/{id}          one run's status
//	GET  /v1/runs/{id}/stream   live progress, one JSON event per line (chunked)
//	GET  /v1/runs/{id}/jsonl    per-trial records (once done)
//	GET  /v1/runs/{id}/events   canonical event log (once done)
//	GET  /v1/runs/{id}/table    aligned text summary (once done)
//	GET  /v1/runs/{id}/csv      CSV summary (once done)
//	GET  /v1/cache              cache backend, rendered entry and index stats
//	GET  /v1/healthz            liveness
//
// The jsonl/events/table/csv artifacts are a function of the submitted
// source and carry the determinism contract: byte-identical to a CLI
// run of the same campaign at the same seed, for every worker count,
// completion order and cache state. They are sections of the source's
// rendered entry, the one sscampaign -cache -events writes too, copied
// from the file (by sendfile(2) over TCP); a missing entry is written
// again before the GET is served, so two GETs never observe different
// bytes. The stream is live diagnostics (bounded per-subscriber
// buffering; a lagging client's feed is cut, marked by a trailing
// truncation line), except on a POST of a source whose entry keeps a
// stream, copied from the entry and never cut. Every response of known
// length (the artifacts, a kept stream) carries Content-Length; a live
// stream is chunked. GET /v1/cache reports cell entries ("entries",
// "bytes") apart from rendered ones ("rendered_*") and the entries the
// store indexes ("artifact_*").
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/runs/{id}/{output}", s.handleOutput)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`+"\n")
	})
	return mux
}

// runJSON is the wire form of a run's status.
type runJSON struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	State  State  `json:"state"`
	Cells  int    `json:"cells"`
	Hits   int    `json:"cache_hits"`
	Misses int    `json:"cache_misses"`
	Error  string `json:"error,omitempty"`
	Stream string `json:"stream"`
}

func runStatus(r *Run) runJSON {
	state, err := r.State()
	hits, misses := r.CacheStats()
	j := runJSON{
		ID: r.ID, Name: r.Name(), State: state, Cells: r.Cells(),
		Hits: hits, Misses: misses,
		Stream: "/v1/runs/" + r.ID + "/stream",
	}
	if err != nil {
		j.Error = err.Error()
	}
	return j
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, req *http.Request) {
	src, err := io.ReadAll(io.LimitReader(req.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(src) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("campaign source exceeds %d bytes", maxSpecBytes))
		return
	}
	if req.URL.Query().Get("stream") != "" {
		s.submitStream(w, req, string(src))
		return
	}
	r, err := s.Submit(string(src))
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, runStatus(r))
}

// submitStatus is the HTTP status of a refused submit: 503 when the
// service could not take the run, 400 when the spec is at fault.
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// submitStream is the POST /v1/runs?stream=1 form: the response body is
// ndjson whose first line is the run's status object and whose
// remaining lines are the run's progress events, complete from the
// first event because the subscription attaches before the run is
// enqueued (a separate GET .../stream races with execution and can
// join a fast run late, or after it finished). A run of a source with a
// kept stream is done before its head line is written and has no
// subscription: the kept lines, copied from the rendered entry, follow
// the head line in a body of known length, at the client's pace.
func (s *Service) submitStream(w http.ResponseWriter, req *http.Request, src string) {
	r, sub, stream, err := s.SubmitStream(src, 4096)
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	head, _ := json.Marshal(runStatus(r))
	head = append(head, '\n')
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	if stream != nil {
		defer stream.Close()
		w.Header().Set("Content-Length", strconv.FormatInt(int64(len(head))+stream.Len(), 10))
		w.WriteHeader(http.StatusOK)
		w.Write(head)
		io.Copy(w, stream.Reader)
		return
	}
	defer sub.Cancel()
	w.WriteHeader(http.StatusOK)
	w.Write(head)
	streamEvents(w, req, sub)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.Runs()
	list := make([]runJSON, len(runs))
	for i, r := range runs {
		list[i] = runStatus(r)
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Service) run(w http.ResponseWriter, req *http.Request) (*Run, bool) {
	r, ok := s.Get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %q", req.PathValue("id")))
		return nil, false
	}
	return r, true
}

func (s *Service) handleStatus(w http.ResponseWriter, req *http.Request) {
	if r, ok := s.run(w, req); ok {
		writeJSON(w, http.StatusOK, runStatus(r))
	}
}

// handleStream sends the run's live events as one JSON object per line
// (see streamEvents) until the run finishes, the feed lags out, or the
// client disconnects. A stream opened after completion ends immediately
// (fetch the terminal artifacts instead).
func (s *Service) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(w, req)
	if !ok {
		return
	}
	sub := r.Subscribe(4096)
	defer sub.Cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	streamEvents(w, req, sub)
}

// streamCap bounds one body write of a live stream. A full replay burst
// leaves in a handful of chunks, and a client reading line by line never
// waits on more than this much encoding before it sees bytes.
const streamCap = 32 << 10

// streamTruncated is the trailing line of a feed that was cut for lag.
const streamTruncated = `{"ev":"stream-truncated","reason":"subscriber lagged"}` + "\n"

// streamEvents drains a subscription to the response as one JSON object
// per line until the feed closes (run finished or lagged out) or the
// client disconnects. An event is written when it is received; the
// events already queued behind it share its write and its flush, up to
// streamCap bytes. An event arriving on an idle feed therefore leaves at
// once, and a burst (a cached run replaying thousands of events) costs a
// few writes, which is what keeps this loop ahead of the producer and
// the subscription's buffer from overflowing.
func streamEvents(w http.ResponseWriter, req *http.Request, sub *obs.Subscription) {
	cw := newChunkWriter(w)
	for {
		var e obs.Event
		var open bool
		select {
		case <-req.Context().Done():
			return
		case e, open = <-sub.C:
		}
	drain:
		for open && cw.err == nil {
			cw.Observe(e)
			select {
			case e, open = <-sub.C:
			default:
				break drain
			}
		}
		if !open && sub.Lagged() {
			cw.line(streamTruncated)
		}
		if cw.write(); cw.err != nil || !open {
			return
		}
	}
}

// chunkWriter sends a stream's lines, each Write followed by a Flush. As
// an observer it encodes each event as a stream line and writes the
// lines held once they reach streamCap bytes; write sends the rest.
// After a failed Write (the client has gone) it encodes and writes
// nothing more.
type chunkWriter struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte // lines not yet written; nil until the first line
	err     error  // the first failed Write's
}

// newChunkWriter starts a stream on w: the response header is flushed,
// so the client sees it before the first line.
func newChunkWriter(w http.ResponseWriter) *chunkWriter {
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	return &chunkWriter{w: w, flusher: flusher}
}

func (c *chunkWriter) Observe(e obs.Event) {
	if c.err != nil {
		return
	}
	c.buf = appendLine(c.alloc(), e)
	if len(c.buf) >= streamCap {
		c.write()
	}
}

// appendLine appends e's stream line to buf: its JSON object and a
// newline.
func appendLine(buf []byte, e obs.Event) []byte { return append(e.AppendJSON(buf), '\n') }

// line adds a line already encoded, its newline included.
func (c *chunkWriter) line(s string) { c.buf = append(c.alloc(), s...) }

// alloc returns buf, made on the first line with room for a chunk and
// the line that takes it past streamCap: a stream that writes no line
// allocates nothing, and one that does allocates once instead of
// growing by doubling.
func (c *chunkWriter) alloc() []byte {
	if c.buf == nil {
		c.buf = make([]byte, 0, streamCap+streamCap/4)
	}
	return c.buf
}

// write sends the lines held, if any, and flushes them.
func (c *chunkWriter) write() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
		if c.flusher != nil {
			c.flusher.Flush()
		}
	}
	c.buf = c.buf[:0]
}

func (s *Service) handleOutput(w http.ResponseWriter, req *http.Request) {
	r, ok := s.run(w, req)
	if !ok {
		return
	}
	kind := req.PathValue("output")
	a, err := r.Output(req.Context(), kind)
	if err != nil {
		code := http.StatusInternalServerError // a failed run, or a failed run of it again
		switch {
		case errors.Is(err, errUnknownOutput):
			code = http.StatusNotFound
		case errors.Is(err, errNotDone):
			code = http.StatusConflict
		case errors.Is(err, ErrShuttingDown):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	defer a.Close()
	switch kind {
	case "jsonl", "events":
		w.Header().Set("Content-Type", "application/x-ndjson")
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("Content-Length", strconv.FormatInt(a.Len(), 10))
	io.Copy(w, a.Reader)
}

func (s *Service) handleCache(w http.ResponseWriter, _ *http.Request) {
	entries, size, err := s.CacheStats()
	rendered, renderedBytes, rerr := s.cache.RenderedStats()
	if err = errors.Join(err, rerr); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	artEntries, artBytes := s.ArtifactStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"entries": entries, "bytes": size,
		"rendered_entries": rendered, "rendered_bytes": renderedBytes,
		"artifact_entries": artEntries, "artifact_bytes": artBytes,
	})
}
