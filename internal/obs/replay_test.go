package obs

import (
	"bytes"
	"strconv"
	"sync"
	"testing"
)

// replayFeed is what a warm campaign pass sends a sink for cells
// first..first+cells-1: campaign-start, then per cell a cache-hit
// (diagnostic), cell-start, a trial-start/trial-finish pair per trial and
// cell-finish, then campaign-finish. perCell[i] holds cell first+i's
// events in emission order.
func replayFeed(first, cells, trials int) (start Event, perCell [][]Event, finish Event) {
	start = Event{Kind: KindCampaignStart, Cell: -1, Key: "feed", Trial: -1, Count: cells}
	finish = Event{Kind: KindCampaignFinish, Cell: -1, Key: "feed", Trial: -1, Count: cells}
	perCell = make([][]Event, cells)
	for i := range perCell {
		c := first + i
		key := "torus(400)/matching/daemon-" + strconv.Itoa(c)
		evs := []Event{
			{Kind: KindCacheHit, Cell: c, Key: key, Trial: -1, Count: trials},
			{Kind: KindCellStart, Cell: c, Key: key, Trial: -1},
		}
		for t := 0; t < trials; t++ {
			evs = append(evs,
				Event{Kind: KindTrialStart, Cell: c, Key: key, Trial: t, Seed: uint64(c)<<40 | uint64(t)*0x9e3779b97f4a7c15},
				Event{Kind: KindTrialFinish, Cell: c, Key: key, Trial: t, Silent: true, Legit: t%3 != 0,
					Step: 1000*c + 37*t, Round: 10*c + t, Count: t % 2})
		}
		perCell[i] = append(evs, Event{Kind: KindCellFinish, Cell: c, Key: key, Trial: -1, Count: trials})
	}
	return start, perCell, finish
}

// referenceLog is the canonical log by its definition, built without the
// sink: the canonical events in canonical order, each the live object
// behind a sequence number.
func referenceLog(start Event, perCell [][]Event, finish Event) (log []byte, canonical, dropped int) {
	emit := func(e Event) {
		if !e.Kind.Canonical() {
			dropped++
			return
		}
		log = append(log, `{"seq":`...)
		log = strconv.AppendInt(log, int64(canonical), 10)
		log = append(log, ',')
		log = append(log, e.AppendJSON(nil)[1:]...)
		log = append(log, '\n')
		canonical++
	}
	emit(start)
	for _, evs := range perCell {
		for _, e := range evs {
			emit(e)
		}
	}
	emit(finish)
	return log, canonical, dropped
}

func canonicalBytes(t *testing.T, s *ReplaySink) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplaySinkArrivalOrderIndependent: the log is a function of each
// cell's own event order and of nothing else about arrival. Cells fed in
// order, in descending order and interleaved from two goroutines write
// the same bytes, for a whole campaign and for a shard whose first cell
// is 40; those bytes are the reference encoding (the feed is long enough
// that the write flushes part-way); writing twice changes nothing; and
// the event and dropped-diagnostic counts are the feed's.
func TestReplaySinkArrivalOrderIndependent(t *testing.T) {
	t.Parallel()
	for _, first := range []int{0, 40} {
		start, perCell, finish := replayFeed(first, 48, 16)
		want, canonical, dropped := referenceLog(start, perCell, finish)
		if len(want) < 2*canonicalFlushAt {
			t.Fatalf("feed renders %d bytes: too short to cross the flush mark twice", len(want))
		}

		feeds := map[string]func(s *ReplaySink){
			"in order": func(s *ReplaySink) {
				for _, evs := range perCell {
					for _, e := range evs {
						s.Observe(e)
					}
				}
			},
			"descending": func(s *ReplaySink) {
				for i := len(perCell) - 1; i >= 0; i-- {
					for _, e := range perCell[i] {
						s.Observe(e)
					}
				}
			},
			"two goroutines": func(s *ReplaySink) {
				var wg sync.WaitGroup
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// Worker w owns the cells of its parity and walks two of
						// them at once, so cells interleave within a worker too.
						for i := w; i < len(perCell); i += 4 {
							a, b := perCell[i], []Event(nil)
							if i+2 < len(perCell) {
								b = perCell[i+2]
							}
							for j := 0; j < len(a) || j < len(b); j++ {
								if j < len(a) {
									s.Observe(a[j])
								}
								if j < len(b) {
									s.Observe(b[j])
								}
							}
						}
					}(w)
				}
				wg.Wait()
			},
		}
		for name, feed := range feeds {
			s := NewReplaySink()
			s.Observe(start)
			feed(s)
			s.Observe(finish)
			got := canonicalBytes(t, s)
			if !bytes.Equal(got, want) {
				t.Fatalf("first cell %d, %s: log differs from the reference encoding (%d bytes, want %d)",
					first, name, len(got), len(want))
			}
			if again := canonicalBytes(t, s); !bytes.Equal(again, want) {
				t.Fatalf("first cell %d, %s: second WriteCanonical differs", first, name)
			}
			if s.Events() != canonical || s.nonCanon != dropped {
				t.Fatalf("first cell %d, %s: %d events and %d dropped, want %d and %d",
					first, name, s.Events(), s.nonCanon, canonical, dropped)
			}
		}
	}
}

// failAfter accepts n writes, then fails.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

// TestWriteCanonicalSurfacesWriteErrors: a failing writer fails the
// write, at a mid-log flush as well as at the last one.
func TestWriteCanonicalSurfacesWriteErrors(t *testing.T) {
	t.Parallel()
	start, perCell, finish := replayFeed(0, 48, 16)
	s := NewReplaySink()
	s.Observe(start)
	for _, evs := range perCell {
		for _, e := range evs {
			s.Observe(e)
		}
	}
	s.Observe(finish)
	for n := 0; n < 3; n++ {
		if err := s.WriteCanonical(&failAfter{n: n}); err == nil {
			t.Fatalf("writer failing at write %d: error swallowed", n+1)
		}
	}
	if err := s.WriteCanonical(&failAfter{n: 3}); err != nil {
		t.Fatalf("three writes should carry the log: %v", err)
	}
}

// plainFeed is the warm pass of bench/campaigns/plain.campaign as the
// sink sees it: 80 cells of 10 trials, 1 842 events.
func plainFeed() []Event {
	start, perCell, finish := replayFeed(0, 80, 10)
	evs := []Event{start}
	for _, cell := range perCell {
		evs = append(evs, cell...)
	}
	return append(evs, finish)
}

// TestReplaySinkAllocations: observing a campaign costs about one buffer
// a cell (the first cell grows its own; the rest start at its length), a
// write costs its one output buffer, and what the sink keeps per
// canonical event is no more than the 88 bytes of the Event it encodes.
func TestReplaySinkAllocations(t *testing.T) {
	evs := plainFeed()
	var s *ReplaySink
	observe := testing.AllocsPerRun(20, func() {
		s = NewReplaySink()
		for _, e := range evs {
			s.Observe(e)
		}
	})
	if perCell := observe / 80; perCell > 1.5 {
		t.Errorf("observing plain's feed: %.0f allocations, %.2f a cell, want at most 1.5", observe, perCell)
	}
	var w bytes.Buffer
	w.Grow(256 << 10)
	write := testing.AllocsPerRun(20, func() {
		w.Reset()
		if err := s.WriteCanonical(&w); err != nil {
			t.Fatal(err)
		}
	})
	if write >= 3 {
		t.Errorf("WriteCanonical: %.0f allocations a call, want under 3", write)
	}
	held := len(s.preRun) + len(s.postRun)
	for _, lines := range s.cells {
		held += len(lines)
	}
	if perEvent := float64(held) / float64(s.Events()); perEvent > 88 {
		t.Errorf("the sink holds %.1f bytes a canonical event, want at most 88", perEvent)
	}
}

// BenchmarkReplaySink times what a warm run pays for its event log:
// observing plain's 1 842 events and writing the log they make.
func BenchmarkReplaySink(b *testing.B) {
	evs := plainFeed()
	var w bytes.Buffer
	w.Grow(256 << 10)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		s := NewReplaySink()
		for _, e := range evs {
			s.Observe(e)
		}
		w.Reset()
		if err := s.WriteCanonical(&w); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(w.Len()))
}
