package service

import (
	"container/list"
	"io"
	"sync"

	"repro/internal/campaign"
)

// artifactBudget bounds the rendered entry bytes the store indexes: the
// entries finished runs and kept streams are served from. The heap holds
// a few hundred bytes of index per source, so what it bounds is the
// cache directory, or the memory of a daemon started without one (or
// whose cache refuses the writes, see Service.keep). An entry is tens of
// KiB to a few MiB (about 0.5 MiB for an 80-cell campaign), so 32 MiB
// indexes the last fifty or so distinct campaigns; evicting one deletes
// it, and its next GET runs the source again.
const artifactBudget = 32 << 20

// outputKinds names the artifacts a finished run serves: per-trial
// records, canonical event log, aligned text summary, CSV summary; and
// outputSections the rendered entry section each is read from.
var (
	outputKinds    = [...]string{"jsonl", "events", "table", "csv"}
	outputSections = [...]int{campaign.SectionJSONL, campaign.SectionEvents, campaign.SectionTable, campaign.SectionCSV}
)

// Artifact is one section of a rendered entry, open for one read: a
// finished run's artifact, or a kept stream. A file's section is an
// *io.LimitedReader of the *os.File, which io.Copy to a TCP connection
// turns into a sendfile(2): its bytes never enter the heap.
type Artifact struct {
	io.Reader
	n int64
	c io.Closer
}

// Len is the artifact's length in bytes.
func (a *Artifact) Len() int64 { return a.n }

// Close releases the entry the artifact reads.
func (a *Artifact) Close() error { return a.c.Close() }

// artifactStore indexes the rendered entries runs are served from, by
// rendered key, least recently used out first, under a byte budget
// charged each entry's length: where the sections lie and the stamp of
// the version described, never their bytes. Evicting an entry removes it
// from its backend. The store also keeps each source's text, for a run
// that writes its entry again, so it grows with the distinct sources
// submitted, not with runs.
type artifactStore struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64                     // indexed entry bytes
	lru     list.List                 // of *artifactEntry, indexed, most recently used first
	entries map[string]*artifactEntry // indexed or not
}

type artifactEntry struct {
	key, src string
	// idx, be (the backend holding the entry) and elem are nil while the
	// entry is not indexed.
	idx  *campaign.RenderedIndex
	be   campaign.Backend
	elem *list.Element
	// rewrite is the run writing the entry again, and readers counts it
	// and its readers until each has opened the entry or given up:
	// eviction passes the entry over meanwhile.
	rewrite *rewrite
	readers int
}

// rewrite is one run of a source for the readers of its missing entry.
type rewrite struct {
	done chan struct{}
	err  error
}

func newArtifactStore(budget int64) *artifactStore {
	return &artifactStore{budget: budget, entries: make(map[string]*artifactEntry)}
}

// entry returns key's entry, adding an empty one. Called locked.
func (st *artifactStore) entry(key string) *artifactEntry {
	e := st.entries[key]
	if e == nil {
		e = &artifactEntry{key: key}
		st.entries[key] = e
	}
	return e
}

// source returns the source text the store keeps for key, keeping src
// when it has none ("" keeps nothing).
func (st *artifactStore) source(key, src string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[key]
	if e == nil {
		if src == "" {
			return ""
		}
		e = st.entry(key)
	}
	if e.src == "" {
		e.src = src
	}
	return e.src
}

// index returns key's index entry and the backend holding its entry, or
// nils when it is not indexed.
func (st *artifactStore) index(key string) (*campaign.RenderedIndex, campaign.Backend) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[key]; e != nil && e.idx != nil {
		st.lru.MoveToFront(e.elem)
		return e.idx, e.be
	}
	return nil, nil
}

// put indexes idx, an entry be holds, under key in place of what key
// had, and evicts from the cold end down to the budget, removing the
// evicted entries from their backends. The newest entry stays even when
// it alone is over the budget, so a run's own GETs are served from it,
// and so does one that readers are about to open.
func (st *artifactStore) put(key string, idx *campaign.RenderedIndex, be campaign.Backend) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entry(key)
	if e.idx != nil {
		if e.be != be {
			e.be.RemoveRendered(key) // the version idx replaces
		}
		st.bytes -= e.idx.Stamp.Size
		st.lru.MoveToFront(e.elem)
	} else {
		e.elem = st.lru.PushFront(e)
	}
	e.idx, e.be = idx, be
	st.bytes += idx.Stamp.Size
	for el := st.lru.Back(); st.bytes > st.budget && el != st.lru.Front(); {
		cold := el.Value.(*artifactEntry)
		el = el.Prev()
		if cold.readers == 0 {
			cold.be.RemoveRendered(cold.key) // a failure leaves a valid entry behind
			st.unindex(cold)
		}
	}
}

// drop unindexes key if its index is still idx, a version the backend no
// longer holds.
func (st *artifactStore) drop(key string, idx *campaign.RenderedIndex) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[key]; e != nil && e.idx == idx {
		st.unindex(e)
	}
}

// unindex drops e's index entry. Called locked.
func (st *artifactStore) unindex(e *artifactEntry) {
	st.lru.Remove(e.elem)
	st.bytes -= e.idx.Stamp.Size
	e.idx, e.be, e.elem = nil, nil, nil
}

// join adds a reader to key's rewrite, starting one (lead) when there
// is none. Each join is left, and a started rewrite is ended.
func (st *artifactStore) join(key string) (w *rewrite, lead bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entry(key)
	if e.rewrite == nil {
		e.rewrite, lead = &rewrite{done: make(chan struct{})}, true
		e.readers++ // the rewrite's own, left when it ends
	}
	e.readers++
	return e.rewrite, lead
}

// end ends key's rewrite w with err.
func (st *artifactStore) end(key string, w *rewrite, err error) {
	w.err = err
	close(w.done)
	st.leave(key)
}

// leave removes a reader from key's rewrite; the last one clears it, so
// the next reader to miss the entry starts another.
func (st *artifactStore) leave(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entries[key]
	if e.readers--; e.readers == 0 {
		e.rewrite = nil
	}
}

// stats reports the indexed entry count, and the bytes charged for them.
func (st *artifactStore) stats() (entries int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len(), st.bytes
}
