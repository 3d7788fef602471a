// Package trace measures the paper's communication-efficiency notions on
// live executions (Section 3):
//
//   - k-efficiency (Def. 4): the maximum number of distinct neighbors any
//     process reads within a single step;
//   - communication complexity (Def. 5): the maximum amount of memory (in
//     bits) a process reads from its neighbors in a single step;
//   - ♦-(x,k)-stability (Defs. 7-9): the per-process sets R_p of distinct
//     neighbors read over a suffix of the computation (MarkSuffix starts
//     a new suffix, typically at the silence point; without one the
//     suffix is the whole recording).
//
// Recorder implements model.Observer; attach one to a Simulator and read
// the Report afterwards. The engine names each neighbor read by its base
// arc (graph.Graph.Arc), so the read sets are one bit per arc of the
// graph and a size per process, at every n. The report carries them as a
// histogram of their sizes, which is all the stability count needs, so
// it costs O(Δ) however many processes there are.
package trace

import "repro/internal/model"

// Recorder accumulates read/step/move statistics for one execution. The
// engine delivers each selection's reads already folded (distinct
// neighbors, deduplicated bits), and the selections it replays as
// counted calls: one per disabled process whose verdict stood, and one
// per transition of a closed cycle. So the recorder keeps no per-step state
// and allocates nothing on the steady-state path. A Recorder is
// reusable: Reset rewinds it to the state of a fresh NewRecorder without
// reallocating, which is what lets the trial pipeline run millions of
// executions through one recorder per worker.
//
// The only per-process state is the read set R_p since the last
// MarkSuffix (or Reset): ♦-(x,k)-stability needs nothing else. R_p is a
// set of p's arcs (the engine names each neighbor read by its base arc,
// see model.Observer.Selected), and arcs of distinct processes are
// distinct, so every read set lives in one bitset over arcs, read, with
// its size in size[p]: a bit per arc and four bytes per process, 4.5 B
// per process at Δ = 4, whatever n is. The bitset grows to the highest
// arc read and keeps its storage across MarkSuffix and Reset.
type Recorder struct {
	maxStepReads int // max distinct neighbors any process read in one step
	maxStepBits  int // max bits any process read in one step

	read []uint64 // bit a set: arc a is in R_p of the process that owns it
	size []int32  // size[p] = |R_p|, one entry per process

	totalBits          int64
	totalReads         int64 // distinct (process, neighbor) reads summed over steps
	moves              int64
	disabledSelections int64
	selections         int64
	commWrites         int64
	steps              int
	rounds             int

	suffixSteps      int
	suffixRounds     int
	suffixBits       int64
	suffixReads      int64
	suffixSelections int64
	suffixMoves      int64
}

// NewRecorder returns a Recorder for n processes.
func NewRecorder(n int) *Recorder {
	r := &Recorder{}
	r.Reset(n)
	return r
}

// Reset rewinds the recorder to the state of a fresh NewRecorder(n),
// reusing every allocation when n is unchanged. Statistics, read sets and
// the suffix mark are all cleared.
func (r *Recorder) Reset(n int) {
	if n != len(r.size) {
		r.read, r.size = nil, make([]int32, n)
	}
	r.clearReadSets()
	r.maxStepReads, r.maxStepBits = 0, 0
	r.totalBits, r.totalReads = 0, 0
	r.moves, r.disabledSelections, r.selections, r.commWrites = 0, 0, 0, 0
	r.steps, r.rounds = 0, 0
	r.clearSuffixCounts()
}

// clearReadSets empties every R_p.
func (r *Recorder) clearReadSets() {
	clear(r.read)
	clear(r.size)
}

func (r *Recorder) clearSuffixCounts() {
	r.suffixSteps, r.suffixRounds = 0, 0
	r.suffixBits, r.suffixReads = 0, 0
	r.suffixSelections, r.suffixMoves = 0, 0
}

var _ model.Observer = (*Recorder)(nil)

// StepBegin implements model.Observer.
func (r *Recorder) StepBegin(_, selections int) {
	r.selections += int64(selections)
	r.suffixSelections += int64(selections)
}

// Selected implements model.Observer: times selections of p, each of
// which read the distinct neighbors behind the given arcs for bits bits
// and fired action `fired`. Counters scale by times, maxima compare and
// set insertions are idempotent, so a batch of counted replays folds to
// what that many single calls would.
func (r *Recorder) Selected(_, p int, arcs []int, bits, fired, times int) {
	t := int64(times)
	if fired >= 0 {
		r.moves += t
		r.suffixMoves += t
	} else {
		r.disabledSelections += t
	}
	reads := len(arcs)
	if reads == 0 {
		return
	}
	r.maxStepReads = max(r.maxStepReads, reads)
	r.totalReads += int64(reads) * t
	r.suffixReads += int64(reads) * t
	r.maxStepBits = max(r.maxStepBits, bits)
	r.totalBits += int64(bits) * t
	r.suffixBits += int64(bits) * t
	for _, a := range arcs {
		w, b := a>>6, uint64(1)<<(a&63)
		if w >= len(r.read) {
			r.read = append(r.read, make([]uint64, w+1-len(r.read))...)
		}
		if r.read[w]&b == 0 {
			r.read[w] |= b
			r.size[p]++
		}
	}
}

// CommWrite implements model.Observer.
func (r *Recorder) CommWrite(_, _, _, _, _ int) {
	r.commWrites++
}

// StepEnd implements model.Observer.
func (r *Recorder) StepEnd(_, _ int, roundCompleted bool) {
	r.steps++
	r.suffixSteps++
	if roundCompleted {
		r.rounds++
		r.suffixRounds++
	}
}

// MarkSuffix starts a new suffix: the per-process read sets are
// cleared. Call it at the silence point to measure ♦-(x,k)-stability.
func (r *Recorder) MarkSuffix() {
	r.clearReadSets()
	r.clearSuffixCounts()
}

// Report summarizes a recorded execution.
type Report struct {
	// N is the number of processes.
	N int
	// Steps and Rounds cover the whole recording.
	Steps  int
	Rounds int
	// Moves is the number of fired actions; DisabledSelections counts
	// selections of disabled processes; Selections counts all
	// selections.
	Moves              int64
	DisabledSelections int64
	Selections         int64
	// CommWrites is the number of communication-variable value changes.
	CommWrites int64
	// KEfficiency is the max distinct neighbors any process read in one
	// step (Def. 4: the protocol behaved k-efficiently for this k).
	KEfficiency int
	// CommComplexityBits is the max bits any process read in one step
	// (Def. 5).
	CommComplexityBits int
	// TotalBits is the sum over steps and processes of bits read.
	TotalBits int64
	// TotalReads is the sum over steps of distinct neighbors read.
	TotalReads int64
	// SuffixReadSetHist[s] is the number of processes whose read set
	// R_p over the current suffix has s members; its length is one more
	// than the largest such set, at most Δ + 1.
	SuffixReadSetHist []int
	// SuffixSteps and SuffixRounds cover the current suffix.
	SuffixSteps  int
	SuffixRounds int
	// SuffixTotalBits, SuffixTotalReads, SuffixSelections and
	// SuffixMoves cover the current suffix; they quantify the
	// stabilized-phase communication overhead when MarkSuffix was called
	// at the silence point.
	SuffixTotalBits  int64
	SuffixTotalReads int64
	SuffixSelections int64
	SuffixMoves      int64
}

// Report snapshots the current statistics.
func (r *Recorder) Report() Report {
	var rep Report
	r.ReportInto(&rep)
	return rep
}

// ReportInto fills rep with the current statistics, reusing rep's slices
// when their capacity allows: the trial pipeline's allocation-free
// reporting path (Report is the allocating convenience form).
func (r *Recorder) ReportInto(rep *Report) {
	*rep = Report{
		N:                  len(r.size),
		Steps:              r.steps,
		Rounds:             r.rounds,
		Moves:              r.moves,
		DisabledSelections: r.disabledSelections,
		Selections:         r.selections,
		CommWrites:         r.commWrites,
		KEfficiency:        r.maxStepReads,
		CommComplexityBits: r.maxStepBits,
		TotalBits:          r.totalBits,
		TotalReads:         r.totalReads,
		SuffixReadSetHist:  rep.SuffixReadSetHist[:0],
		SuffixSteps:        r.suffixSteps,
		SuffixRounds:       r.suffixRounds,
		SuffixTotalBits:    r.suffixBits,
		SuffixTotalReads:   r.suffixReads,
		SuffixSelections:   r.suffixSelections,
		SuffixMoves:        r.suffixMoves,
	}
	for _, size := range r.size {
		for len(rep.SuffixReadSetHist) <= int(size) {
			rep.SuffixReadSetHist = append(rep.SuffixReadSetHist, 0)
		}
		rep.SuffixReadSetHist[size]++
	}
}

// StableProcesses returns the number of processes whose suffix read set
// has size at most k: the x of ♦-(x,k)-stability as witnessed by the
// recorded suffix.
func (rep Report) StableProcesses(k int) int {
	count := 0
	for size, c := range rep.SuffixReadSetHist {
		if size <= k {
			count += c
		}
	}
	return count
}

// SuffixAvgBitsPerSelection returns the mean bits read per selection in
// the current suffix: the per-activation communication price of the
// stabilized phase.
func (rep Report) SuffixAvgBitsPerSelection() float64 {
	if rep.SuffixSelections == 0 {
		return 0
	}
	return float64(rep.SuffixTotalBits) / float64(rep.SuffixSelections)
}

// SuffixAvgReadsPerSelection returns the mean distinct-neighbor reads per
// selection in the current suffix.
func (rep Report) SuffixAvgReadsPerSelection() float64 {
	if rep.SuffixSelections == 0 {
		return 0
	}
	return float64(rep.SuffixTotalReads) / float64(rep.SuffixSelections)
}

// SpaceComplexityBits returns the paper's space complexity (Def. 6) for
// process p of a system: the local memory (communication + internal
// variable widths) plus the measured communication complexity.
func SpaceComplexityBits(sys *model.System, p int, commComplexityBits int) int {
	total := commComplexityBits
	spec := sys.Spec()
	for v := range spec.Comm {
		total += model.BitsFor(sys.CommDomain(p, v))
	}
	for v := range spec.Internal {
		total += model.BitsFor(sys.InternalDomain(p, v))
	}
	return total
}
