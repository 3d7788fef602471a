package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// artifactBudget bounds the bytes the store keeps resident: rendered
// sets and the streams kept beside them. What bounds it is the daemon's
// memory, not its speed: one artifact set is tens of KiB to a few MiB
// (about 0.3 MiB for an 80-cell campaign, whose kept stream adds about
// 0.16 MiB), so 32 MiB keeps the sets of the last hundred or so distinct
// campaigns a byte copy away and costs every other GET one warm replay.
const artifactBudget = 32 << 20

// artifactKey addresses a campaign's artifacts by the SHA-256 of its
// submitted source: the artifacts are a function of the source alone.
type artifactKey [sha256.Size]byte

// outputKinds names the artifacts a finished run serves, in the order an
// artifactSet holds them: per-trial records, canonical event log,
// aligned text summary, CSV summary.
var outputKinds = [...]string{"jsonl", "events", "table", "csv"}

// artifactSet is the rendered artifacts of one campaign source, indexed
// as outputKinds and immutable once built.
type artifactSet [len(outputKinds)][]byte

func (a *artifactSet) size() (n int64) {
	for _, b := range a {
		n += int64(len(b))
	}
	return n
}

// render is the one place artifacts are made: from a finished
// execution's outcome and the ReplaySink that observed it. The slices
// are exact-size clones, not the buffers' own arrays: a buffer grown by
// doubling can hold up to twice its content, and the store would count
// less than it keeps.
func render(out *campaign.Outcome, replay *obs.ReplaySink) (*artifactSet, error) {
	var jsonl, events, csv bytes.Buffer
	if err := out.WriteJSONL(&jsonl); err != nil {
		return nil, err
	}
	if err := replay.WriteCanonical(&events); err != nil {
		return nil, err
	}
	table := out.Table()
	if err := table.CSV(&csv); err != nil {
		return nil, err
	}
	return &artifactSet{
		bytes.Clone(jsonl.Bytes()), bytes.Clone(events.Bytes()),
		[]byte(table.String()), bytes.Clone(csv.Bytes()),
	}, nil
}

// keptRun is what the store keeps beside a resident set for the next
// run of its source: the stream lines of a run of that source served
// wholly from the cache, the campaign's name and its cell count. It is
// immutable once made.
type keptRun struct {
	stream []byte
	name   string
	cells  int
}

// keep returns what the store keeps of a finished run for the next run
// of its source: nil unless every cell of out was read from the cache
// (what was read, not what was computed, so cold runs keep nothing).
// The stream is out's replay, the events a full-hit run emits, encoded
// once as a live stream encodes them, in an exact-size slice.
func keep(out *campaign.Outcome) *keptRun {
	if out.CacheHits != len(out.Results) {
		return nil
	}
	var lines lineBuffer
	out.Replay(&lines)
	return &keptRun{bytes.Clone(lines), strings.Clone(out.Plan.Spec.Name), len(out.Plan.Cells)}
}

// size is what a kept run is charged: the stream's and the name's bytes.
func (k *keptRun) size() int64 { return int64(len(k.stream) + len(k.name)) }

// artifactStore keeps rendered artifact sets by source key, least
// recently used out first, under a byte budget. Beside a set it may keep
// the stream of a run of that source served wholly from the cache,
// which lets the next run of the source be served from memory (see
// Service.submit); the stream is charged to the budget with its set and
// leaves with it. An entry outlives its artifacts: it keeps the source
// text, shared by every run of that source, so an evicted set can be
// rendered again. The store therefore grows with the distinct sources
// submitted, and not with the number of runs.
type artifactStore struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64                          // resident set and kept run bytes
	lru     list.List                      // of *artifactEntry, most recently used first
	entries map[artifactKey]*artifactEntry // resident or not
}

type artifactEntry struct {
	src string
	// set and elem are nil while the artifacts are not resident; kept is
	// nil too then, and may be while they are. size is what set and kept
	// are charged.
	set  *artifactSet
	kept *keptRun
	size int64
	elem *list.Element
	// flight is the render in progress for this key, if any.
	flight *renderFlight
}

// renderFlight is one render of an evicted set that every concurrent
// reader of the key waits for; set and err are written before done
// closes.
type renderFlight struct {
	done chan struct{}
	set  *artifactSet
	err  error
}

func newArtifactStore(budget int64) *artifactStore {
	return &artifactStore{budget: budget, entries: make(map[artifactKey]*artifactEntry)}
}

// get returns key's resident artifacts, or nil.
func (st *artifactStore) get(key artifactKey) *artifactSet {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[key]; e != nil && e.set != nil {
		st.lru.MoveToFront(e.elem)
		return e.set
	}
	return nil
}

// lookup returns the run kept beside key's resident set (nil when there
// is none), and the source text the store keeps for key ("" when no run
// of it has finished).
func (st *artifactStore) lookup(key artifactKey) (*keptRun, string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[key]
	if e == nil {
		return nil, ""
	}
	if e.kept != nil {
		st.lru.MoveToFront(e.elem)
	}
	return e.kept, e.src
}

// put makes set the resident artifacts of key, whose source is src, and
// keeps kept (see keep) beside them. A nil set only attaches kept to a
// set already resident. It evicts from the cold end down to the budget;
// the newest entry stays even when it alone is over the budget, so a
// run's own GETs are served from it.
func (st *artifactStore) put(key artifactKey, src string, set *artifactSet, kept *keptRun) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[key]
	if e == nil {
		e = &artifactEntry{src: src}
		st.entries[key] = e
	}
	st.insert(e, set, kept)
}

// insert is put's body, called with the lock held. A key that is
// already resident keeps the bytes it has been serving, and the run it
// has kept.
func (st *artifactStore) insert(e *artifactEntry, set *artifactSet, kept *keptRun) {
	switch {
	case e.set != nil:
		st.lru.MoveToFront(e.elem)
	case set != nil:
		e.set, e.elem, e.size = set, st.lru.PushFront(e), set.size()
		st.bytes += e.size
	default:
		return // evicted since the caller found it resident
	}
	if kept != nil && e.kept == nil {
		e.kept = kept
		n := kept.size()
		e.size += n
		st.bytes += n
	}
	for st.bytes > st.budget && st.lru.Len() > 1 {
		cold := st.lru.Remove(st.lru.Back()).(*artifactEntry)
		st.bytes -= cold.size
		cold.set, cold.kept, cold.size, cold.elem = nil, nil, 0, nil
	}
}

// begin starts a read of a key some finished run holds (so its entry
// exists). It returns the resident set; or the flight to wait on, and
// lead true when the caller is the one that must render src and call
// end with the result.
func (st *artifactStore) begin(key artifactKey) (set *artifactSet, fl *renderFlight, src string, lead bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[key]
	if e.set != nil {
		st.lru.MoveToFront(e.elem)
		return e.set, nil, "", false
	}
	if e.flight != nil {
		return nil, e.flight, "", false
	}
	e.flight = &renderFlight{done: make(chan struct{})}
	return nil, e.flight, e.src, true
}

// end finishes the flight begin handed its leader: a rendered set
// becomes resident, and the waiters are released with it or with err.
func (st *artifactStore) end(key artifactKey, fl *renderFlight, set *artifactSet, err error) {
	st.mu.Lock()
	e := st.entries[key]
	e.flight = nil
	if err == nil {
		st.insert(e, set, nil)
		set = e.set
	}
	st.mu.Unlock()
	fl.set, fl.err = set, err
	close(fl.done)
}

// stats reports the resident set count, and the bytes charged for them
// and their kept runs.
func (st *artifactStore) stats() (entries int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len(), st.bytes
}
