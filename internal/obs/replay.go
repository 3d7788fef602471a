package obs

import (
	"bytes"
	"io"
	"strconv"
	"sync"
)

// canonicalFlushAt is the buffered size beyond which WriteCanonical
// hands its rendered lines to the writer (checked after every line).
const canonicalFlushAt = 64 << 10

// ReplaySink collects the canonical (cache-independent) events of a run
// and writes them as a deterministic JSONL log: one object per event,
// ordered campaign-start → cells in ascending index (each cell's events
// in emission order) → campaign-finish, with monotonic sequence numbers
// assigned at write time and no wall-clock anywhere in the encoding.
//
// An event is encoded when it is observed: the sink holds each line
// without its head — the members Event.AppendJSON writes, then "}\n" —
// and the write prefixes `{"seq":N,`. A JSON string never holds a raw
// newline, so a newline always ends a line.
//
// For a fixed seed the written bytes are identical across parallelism
// values (a cell's lines are appended by exactly one worker, the flush
// walks cells in index order) and across cold/warm cache states (the
// campaign executor replays cached cells' canonical events from their
// stored records). Diagnostic kinds (Kind.Canonical() == false) are
// dropped; route them to a logging sink via Tee if wanted.
type ReplaySink struct {
	mu       sync.Mutex
	preRun   []byte   // campaign-level lines before any cell (Cell < 0)
	postRun  []byte   // campaign-level finish lines
	cells    [][]byte // per-cell lines, indexed by cell, emission order
	cellHint int      // longest finished cell so far: the next cell's first capacity
	events   int      // canonical events buffered
	nonCanon int      // diagnostic events seen and dropped
}

// NewReplaySink returns an empty sink ready to observe.
func NewReplaySink() *ReplaySink {
	return &ReplaySink{}
}

// Observe encodes and buffers canonical events; diagnostic events are
// counted and dropped. Safe for concurrent use.
func (s *ReplaySink) Observe(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !e.Kind.Canonical() {
		s.nonCanon++
		return
	}
	s.events++
	var dst *[]byte
	switch {
	case e.Cell >= 0:
		for e.Cell >= len(s.cells) {
			s.cells = append(s.cells, nil)
		}
		dst = &s.cells[e.Cell]
		if *dst == nil {
			// Cells of one campaign run the same trials, so the last one's
			// length spares this one the doubling from nothing.
			*dst = make([]byte, 0, s.cellHint)
		}
	case e.Kind == KindCampaignFinish:
		dst = &s.postRun
	default:
		dst = &s.preRun
	}
	*dst = append(e.appendMembers(*dst), '}', '\n')
	if e.Kind == KindCellFinish && len(*dst) > s.cellHint {
		s.cellHint = len(*dst)
	}
}

// Events returns the number of buffered canonical events.
func (s *ReplaySink) Events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// WriteCanonical writes the canonical log. The sink stays intact (a
// second call produces the same bytes).
func (s *ReplaySink) WriteCanonical(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Room for one long line past the flush mark, so the buffer rarely grows.
	buf := make([]byte, 0, canonicalFlushAt+1024)
	seq := 0
	emit := func(lines []byte) error {
		for len(lines) > 0 {
			n := bytes.IndexByte(lines, '\n') + 1
			buf = append(buf, `{"seq":`...)
			buf = strconv.AppendInt(buf, int64(seq), 10)
			buf = append(buf, ',')
			buf = append(buf, lines[:n]...)
			lines = lines[n:]
			seq++
			if len(buf) >= canonicalFlushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return nil
	}
	if err := emit(s.preRun); err != nil {
		return err
	}
	for _, lines := range s.cells {
		if err := emit(lines); err != nil {
			return err
		}
	}
	if err := emit(s.postRun); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}
