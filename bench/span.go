package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (-1 for a root); Req is shared by the spans of one
// request — one campaign pass, one service op.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration // since the tracer was created
}

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil *tracer records nothing, so one call sequence serves both the
// traced and the untraced pass whose ratio is the tracing overhead.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// start opens a span under parent and returns its id (-1 on a nil
// tracer).
func (t *tracer) start(parent, req int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// interval records a span whose two instants were taken by the caller
// (a boundary that falls inside a read loop, where start/end calls
// cannot sit).
func (t *tracer) interval(parent, req int, name string, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: from.Sub(t.t0), End: to.Sub(t.t0)})
	t.mu.Unlock()
}

// count adds v to the named boundary counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes returns, per (request, span name), the summed self time of
// the closed spans: a span's duration minus the part of its interval its
// children cover. Children are clipped to the parent and overlapping
// children (concurrent callers) are counted once.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		if out[s.Req] == nil {
			out[s.Req] = make(map[string]time.Duration)
		}
		out[s.Req][s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// medianSelfMS returns, per span name, the median over requests of the
// request's summed self time in milliseconds: what a layer costs one
// suite pass or one service op.
func medianSelfMS(spans []span) map[string]float64 {
	perName := make(map[string][]float64)
	for _, names := range selfTimes(spans) {
		for name, d := range names {
			perName[name] = append(perName[name], ms(d))
		}
	}
	out := make(map[string]float64, len(perName))
	for name, vals := range perName {
		out[name] = median(vals)
	}
	return out
}

// traceFile is bench/out/trace.json. Spans are rows of
// [id, parent, req, name index, start ns, end ns] over the names table,
// which keeps tens of thousands of per-event spans readable and small.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Columns  []string           `json:"columns"`
	Names    []string           `json:"names"`
	Spans    [][6]int64         `json:"spans"`
	Counts   map[string]float64 `json:"counts"`
	Metrics  map[string]float64 `json:"metrics"`
}

// write dumps the trace beside the metrics derived from it.
func (t *tracer) write(path, workload string, seed uint64, metrics map[string]float64) error {
	f := traceFile{
		Workload: workload, Seed: seed,
		Columns: []string{"id", "parent", "req", "name", "start_ns", "end_ns"},
		Counts:  t.counts, Metrics: metrics,
		Spans: make([][6]int64, len(t.spans)),
	}
	index := make(map[string]int64)
	for i, s := range t.spans {
		n, ok := index[s.Name]
		if !ok {
			n = int64(len(f.Names))
			index[s.Name] = n
			f.Names = append(f.Names, s.Name)
		}
		f.Spans[i] = [6]int64{int64(s.ID), int64(s.Parent), int64(s.Req), n, int64(s.Start), int64(s.End)}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
