// The work-stealing Coordinator below has no production caller: every
// plan runs on the engine pool through campaign.Execute.
// bench/trace_service.go times Coordinator.Next, so the next benchmark PR
// deletes this file and coordinator_test.go together with that row.

package service

import "sync"

// StealPolicy picks the victim a thief steals from: remaining[w] is the
// number of unclaimed cells in each worker's range (remaining[thief] is
// 0). Return a worker index with remaining > 0, or -1 to give up and
// let the thief exit. The default policy targets the largest remaining
// range; tests inject adversarial policies to prove scheduling cannot
// perturb output bytes.
type StealPolicy func(thief int, remaining []int) int

// StealLargest is the default policy: rob the richest victim, so ranges
// halve geometrically and contention stays low. Ties break to the
// lowest worker index (deterministic, though correctness never depends
// on it).
func StealLargest(thief int, remaining []int) int {
	best, bestSize := -1, 0
	for w, n := range remaining {
		if w != thief && n > bestSize {
			best, bestSize = w, n
		}
	}
	return best
}

// span is one worker's unclaimed range of work positions [next, end).
type span struct{ next, end int }

// Coordinator hands out work positions 0..n-1 to workers: each starts
// with a contiguous range (the same i*n/W partition arithmetic as
// campaign sharding) and claims positions front to back; a worker whose
// range is empty steals the tail half of a victim's remaining range,
// re-split at cell boundaries. A central mutex serializes claims —
// cells are coarse work units (whole trial sequences), so the
// coordinator is never the bottleneck and gets the simplest possible
// correctness argument: every position is claimed exactly once.
type Coordinator struct {
	mu      sync.Mutex
	spans   []span
	steal   StealPolicy
	stopped bool
}

// NewCoordinator partitions n positions across workers. A nil policy
// uses StealLargest.
func NewCoordinator(n, workers int, steal StealPolicy) *Coordinator {
	if workers < 1 {
		workers = 1
	}
	if steal == nil {
		steal = StealLargest
	}
	c := &Coordinator{spans: make([]span, workers), steal: steal}
	for w := range c.spans {
		c.spans[w] = span{
			next: int(int64(w) * int64(n) / int64(workers)),
			end:  int(int64(w+1) * int64(n) / int64(workers)),
		}
	}
	return c
}

// Next claims the next position for worker w. ok is false when the
// worker should exit: all work claimed, nothing left to steal, or the
// coordinator stopped (drain). Claims of one worker arrive in
// increasing position order within each owned range.
func (c *Coordinator) Next(w int) (pos int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return 0, false
	}
	s := &c.spans[w]
	if s.next >= s.end {
		if !c.stealLocked(w) {
			return 0, false
		}
	}
	pos = s.next
	s.next++
	return pos, true
}

// stealLocked moves the tail half of a victim's remaining range into
// worker w's span (the whole range when only one position remains).
// Splitting takes the tail so the victim's in-order claim position is
// untouched. Returns false when no victim has work.
func (c *Coordinator) stealLocked(w int) bool {
	remaining := make([]int, len(c.spans))
	any := false
	for i := range c.spans {
		remaining[i] = c.spans[i].end - c.spans[i].next
		if i != w && remaining[i] > 0 {
			any = true
		}
	}
	if !any {
		return false
	}
	v := c.steal(w, remaining)
	if v < 0 || v >= len(c.spans) || v == w || remaining[v] <= 0 {
		return false
	}
	vs := &c.spans[v]
	mid := vs.end - remaining[v]/2
	if remaining[v] == 1 {
		mid = vs.next
	}
	c.spans[w] = span{next: mid, end: vs.end}
	vs.end = mid
	return true
}

// Stop makes every subsequent Next return false: the drain signal.
// Workers finish the cell they are computing and exit; already-claimed
// work is never revoked.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Remaining reports the total unclaimed positions (diagnostics).
func (c *Coordinator) Remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.spans {
		n += c.spans[i].end - c.spans[i].next
	}
	return n
}
