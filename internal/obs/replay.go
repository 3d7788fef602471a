package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
)

// ReplaySink collects the canonical (cache-independent) events of a run
// and writes them as a deterministic JSONL log: one object per event,
// ordered campaign-start → cells in ascending index (each cell's events
// in emission order) → campaign-finish, with monotonic sequence numbers
// assigned at write time and no wall-clock anywhere in the encoding.
//
// For a fixed seed the written bytes are identical across parallelism
// values (cell buckets are filled by exactly one worker each, the flush
// order is index-sorted) and across cold/warm cache states (the
// campaign executor replays cached cells' canonical events from their
// stored records). Diagnostic kinds (Kind.Canonical() == false) are
// dropped; route them to a logging sink via Tee if wanted.
type ReplaySink struct {
	mu       sync.Mutex
	preRun   []Event         // campaign-level events before any cell (Cell < 0)
	postRun  []Event         // campaign-level finish events
	cells    map[int][]Event // per-cell buckets, emission order
	nonCanon int             // diagnostic events seen and dropped
}

// NewReplaySink returns an empty sink ready to observe.
func NewReplaySink() *ReplaySink {
	return &ReplaySink{cells: make(map[int][]Event)}
}

// Observe buffers canonical events; diagnostic events are counted and
// dropped. Safe for concurrent use.
func (s *ReplaySink) Observe(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !e.Kind.Canonical() {
		s.nonCanon++
		return
	}
	if e.Cell < 0 {
		if e.Kind == KindCampaignFinish {
			s.postRun = append(s.postRun, e)
		} else {
			s.preRun = append(s.preRun, e)
		}
		return
	}
	s.cells[e.Cell] = append(s.cells[e.Cell], e)
}

// Events returns the number of buffered canonical events.
func (s *ReplaySink) Events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.preRun) + len(s.postRun)
	for _, evs := range s.cells {
		n += len(evs)
	}
	return n
}

// WriteCanonical writes the canonical log. The sink stays intact (a
// second call produces the same bytes).
func (s *ReplaySink) WriteCanonical(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	idx := make([]int, 0, len(s.cells))
	for c := range s.cells {
		idx = append(idx, c)
	}
	sort.Ints(idx)
	seq := 0
	var buf []byte
	emit := func(e Event) error {
		buf = appendCanonical(buf[:0], seq, e)
		seq++
		_, err := bw.Write(buf)
		return err
	}
	for _, e := range s.preRun {
		if err := emit(e); err != nil {
			return err
		}
	}
	for _, c := range idx {
		for _, e := range s.cells[c] {
			if err := emit(e); err != nil {
				return err
			}
		}
	}
	for _, e := range s.postRun {
		if err := emit(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendCanonical renders one canonical log line: the flush-time
// sequence number, then exactly the members Event.AppendJSON writes for
// the kind (one encoder, so the log and the live stream cannot drift),
// then a newline. Only determinism-carrying fields are encoded: no
// timestamps, no host/goroutine identity.
func appendCanonical(buf []byte, seq int, e Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, ',')
	buf = e.appendMembers(buf)
	return append(buf, '}', '\n')
}
