package service

import (
	"bytes"
	"container/list"
	"sync"

	"repro/internal/campaign"
)

// hotBudget bounds the cache entry bytes the hot tier keeps resident.
// Like artifactBudget it is the daemon's memory, not its speed: an
// entry is about 250 bytes plus 30 a trial, so 8 MiB holds the cells of
// about 180 campaigns of 80 cells at 10 trials.
const hotBudget = 8 << 20

// hotTier is the daemon's in-memory tier in front of the cache backend
// it was given: the entry bytes the backend has returned, least
// recently used out first, under a byte budget. A warm run of a source
// without a rendered entry (cells sscampaign filled, or an entry
// evicted) reads each entry from the backend (a file open, read and
// close for a DirBackend) once, and from memory after that. The tier
// holds only what a Load returned: a miss or an error is never kept, and
// Store drops the hash before it writes through, so freshly computed
// cells never fill the tier and a corrupt entry read once is replaced by
// the recompute's bytes. Entries are still checksummed and decoded on
// every use: a tier hit is a cache hit like any other. Rendered entries
// and Stats are the backend's own.
type hotTier struct {
	campaign.Backend

	mu      sync.Mutex
	budget  int64
	bytes   int64                    // resident entry bytes
	hits    int64                    // Loads served from the tier
	stores  uint64                   // Stores begun, see Load
	lru     list.List                // of *hotEntry, most recently used first
	entries map[string]*list.Element // resident entries by hash
}

type hotEntry struct {
	hash string
	data []byte
}

func newHotTier(backend campaign.Backend, budget int64) *hotTier {
	return &hotTier{Backend: backend, budget: budget, entries: make(map[string]*list.Element)}
}

// Load implements campaign.Backend. A hit returns the held bytes, which
// callers only read (see campaign.Backend). On a miss the backend's
// entry is kept as an exact-size clone, so the budget counts what is
// kept, unless a Store began while the backend was read: the bytes read
// may be the ones that Store replaces.
func (h *hotTier) Load(hash string) ([]byte, error) {
	h.mu.Lock()
	if el := h.entries[hash]; el != nil {
		h.lru.MoveToFront(el)
		h.hits++
		data := el.Value.(*hotEntry).data
		h.mu.Unlock()
		return data, nil
	}
	stores := h.stores
	h.mu.Unlock()
	data, err := h.Backend.Load(hash)
	if err != nil || data == nil {
		return data, err
	}
	kept := bytes.Clone(data)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stores == stores && h.entries[hash] == nil {
		h.insert(hash, kept)
	}
	return data, nil
}

// insert makes data resident under hash and evicts from the cold end
// down to the budget; an entry larger than the whole budget is not kept.
// Called with the lock held.
func (h *hotTier) insert(hash string, data []byte) {
	size := int64(len(data))
	if size > h.budget {
		return
	}
	for h.bytes+size > h.budget {
		h.remove(h.lru.Back())
	}
	h.entries[hash] = h.lru.PushFront(&hotEntry{hash, data})
	h.bytes += size
}

// remove drops a resident entry. Called with the lock held.
func (h *hotTier) remove(el *list.Element) {
	e := h.lru.Remove(el).(*hotEntry)
	delete(h.entries, e.hash)
	h.bytes -= int64(len(e.data))
}

// Store implements campaign.Backend: it drops the hash from the tier,
// then writes through.
func (h *hotTier) Store(hash string, data []byte) error {
	h.mu.Lock()
	h.stores++
	if el := h.entries[hash]; el != nil {
		h.remove(el)
	}
	h.mu.Unlock()
	return h.Backend.Store(hash, data)
}

// stats reports the resident entry count, their bytes and the Loads the
// tier has served.
func (h *hotTier) stats() (entries int, bytes, hits int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lru.Len(), h.bytes, h.hits
}
