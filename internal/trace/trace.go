// Package trace measures the paper's communication-efficiency notions on
// live executions (Section 3):
//
//   - k-efficiency (Def. 4): the maximum number of distinct neighbors any
//     process reads within a single step;
//   - communication complexity (Def. 5): the maximum amount of memory (in
//     bits) a process reads from its neighbors in a single step;
//   - ♦-(x,k)-stability (Defs. 7-9): the per-process sets R_p of distinct
//     neighbors read over a computation or over a suffix (MarkSuffix
//     starts a new suffix, typically at the silence point).
//
// Recorder implements model.Observer; attach one to a Simulator and read
// the Report afterwards.
package trace

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/model"
)

// sparseThreshold bounds the systems whose read sets are kept as dense
// n-bit bitsets. A process only ever reads its neighbors, so every read
// set R_p has at most degree(p) members — yet the dense representation
// charges n bits per process, O(n²) bytes per recorder, which is the
// memory wall at large n (two sets × 10⁶ processes ≈ 250 GB). Above
// the threshold the recorder switches to one member list per process
// with linear dedup (see Recorder.lists): O(Σ degree) memory total and
// O(degree) per insertion, which is what makes million-process
// recordings fit in RAM. Both representations produce byte-identical
// reports (TestSparseRecorderMatchesDense); it is a var only so tests
// can force the sparse path at small n.
//
// Ablated in PR 13, with insertion down to one probe per distinct
// neighbor: sparse-always (threshold 0) ran the 19-experiment registry
// at 50 trials in 0.638 s against 0.611 s dense (+4 %, 2 of 10
// alternating pairs won), so the dense form keeps its place below the
// threshold.
var sparseThreshold = 4096

// Recorder accumulates read/step/move statistics for one execution. The
// engine delivers each selection's reads already folded (distinct
// neighbors, deduplicated bits), and the selections it replays as
// counted calls: one per disabled process whose verdict stood, and one
// per silent-phase memo state. So the recorder keeps no per-step state
// and allocates nothing on the steady-state path. A Recorder is
// reusable: Reset rewinds it to the state of a fresh NewRecorder without
// reallocating, which is what lets the trial pipeline run millions of
// executions through one recorder per worker.
type Recorder struct {
	n      int
	sparse bool // n > sparseThreshold: list-backed read sets

	maxStepReads int // max distinct neighbors any process read in one step
	maxStepBits  int // max bits any process read in one step

	everRead   []*bitset.Set // R_p over the whole computation
	suffixRead []*bitset.Set // R_p since the last MarkSuffix
	// lists is the sparse form of both sets: lists[p] holds the members
	// of R_p over the whole computation, each once, and a member read
	// since the last MarkSuffix carries inSuffix (the suffix set is a
	// subset of the whole-run set, so a flag per member is all it needs).
	lists [][]int32

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

// inSuffix is the sign bit of a sparse read-set member. Process ids are
// non-negative int32s (package graph rejects larger networks), so the
// bit is free.
const inSuffix int32 = math.MinInt32

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
	sparse := n > sparseThreshold
	if n != r.n || sparse != r.sparse {
		r.n, r.sparse = n, sparse
		if sparse {
			r.everRead, r.suffixRead = nil, nil
			r.lists = make([][]int32, n)
		} else {
			r.lists = nil
			r.everRead = make([]*bitset.Set, n)
			r.suffixRead = make([]*bitset.Set, n)
			for p := 0; p < n; p++ {
				r.everRead[p] = bitset.New(n)
				r.suffixRead[p] = bitset.New(n)
			}
		}
	} else {
		for p := 0; p < n; p++ {
			if sparse {
				r.lists[p] = r.lists[p][:0]
			} else {
				r.everRead[p].Clear()
				r.suffixRead[p].Clear()
			}
		}
	}
	r.maxStepReads, r.maxStepBits = 0, 0
	r.totalBits, r.totalReads = 0, 0
	r.moves, r.disabledSelections, r.selections, r.commWrites = 0, 0, 0, 0
	r.steps, r.rounds = 0, 0
	r.suffixSteps, r.suffixRounds = 0, 0
	r.suffixBits, r.suffixReads = 0, 0
	r.suffixSelections, r.suffixMoves = 0, 0
}

var _ model.Observer = (*Recorder)(nil)

// addMember records a read of q in a sparse read-set list: q joins the
// list if absent and carries inSuffix either way. Read sets only ever
// hold neighbors of one process, so the linear dedup scan is O(degree),
// never O(n).
func addMember(list []int32, q int32) []int32 {
	q |= inSuffix
	for i, m := range list {
		if m|inSuffix == q {
			list[i] = q
			return list
		}
	}
	return append(list, q)
}

// StepBegin implements model.Observer.
func (r *Recorder) StepBegin(_ int, selected []int) {
	r.selections += int64(len(selected))
	r.suffixSelections += int64(len(selected))
}

// Selected implements model.Observer: times selections of p, each of
// which read the given distinct neighbors for bits bits and fired
// action `fired`. Counters scale by times, maxima compare and set
// insertions are idempotent, so a batch of counted replays folds to
// what that many single calls would.
func (r *Recorder) Selected(_, p int, neighbors []int, bits, fired, times int) {
	t := int64(times)
	if fired >= 0 {
		r.moves += t
		r.suffixMoves += t
	} else {
		r.disabledSelections += t
	}
	reads := len(neighbors)
	if reads == 0 {
		return
	}
	r.maxStepReads = max(r.maxStepReads, reads)
	r.totalReads += int64(reads) * t
	r.suffixReads += int64(reads) * t
	r.maxStepBits = max(r.maxStepBits, bits)
	r.totalBits += int64(bits) * t
	r.suffixBits += int64(bits) * t
	if r.sparse {
		list := r.lists[p]
		for _, q := range neighbors {
			list = addMember(list, int32(q))
		}
		r.lists[p] = list
		return
	}
	// The suffix set is a subset of the whole-run set (MarkSuffix clears
	// only the former), so a neighbor already in it needs no second
	// insertion: once a process's sets saturate, a read costs one probe.
	ever, suffix := r.everRead[p], r.suffixRead[p]
	for _, q := range neighbors {
		if suffix.Add(q) {
			ever.Add(q)
		}
	}
}

// CommWrite implements model.Observer.
func (r *Recorder) CommWrite(_, _, _, _, _ int) {
	r.commWrites++
}

// StepEnd implements model.Observer.
func (r *Recorder) StepEnd(_ int, _ []int, roundCompleted bool) {
	r.steps++
	r.suffixSteps++
	if roundCompleted {
		r.rounds++
		r.suffixRounds++
	}
}

// MarkSuffix starts a new suffix: the per-process suffix read sets are
// cleared. Call it at the silence point to measure ♦-(x,k)-stability.
func (r *Recorder) MarkSuffix() {
	for p := 0; p < r.n; p++ {
		if r.sparse {
			for i := range r.lists[p] {
				r.lists[p][i] &^= inSuffix
			}
		} else {
			r.suffixRead[p].Clear()
		}
	}
	r.suffixSteps = 0
	r.suffixRounds = 0
	r.suffixBits = 0
	r.suffixReads = 0
	r.suffixSelections = 0
	r.suffixMoves = 0
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
	// ReadSetSizes[p] = |R_p| over the whole computation.
	ReadSetSizes []int
	// SuffixReadSetSizes[p] = |R_p| over the current suffix.
	SuffixReadSetSizes []int
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
		N:                  r.n,
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
		ReadSetSizes:       resizeInts(rep.ReadSetSizes, r.n),
		SuffixReadSetSizes: resizeInts(rep.SuffixReadSetSizes, r.n),
		SuffixSteps:        r.suffixSteps,
		SuffixRounds:       r.suffixRounds,
		SuffixTotalBits:    r.suffixBits,
		SuffixTotalReads:   r.suffixReads,
		SuffixSelections:   r.suffixSelections,
		SuffixMoves:        r.suffixMoves,
	}
	for p := 0; p < r.n; p++ {
		if r.sparse {
			flagged := 0
			for _, m := range r.lists[p] {
				if m < 0 {
					flagged++
				}
			}
			rep.ReadSetSizes[p] = len(r.lists[p])
			rep.SuffixReadSetSizes[p] = flagged
		} else {
			rep.ReadSetSizes[p] = r.everRead[p].Count()
			rep.SuffixReadSetSizes[p] = r.suffixRead[p].Count()
		}
	}
}

// resizeInts returns a length-n int slice, reusing s's storage when it is
// large enough.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// StableProcesses returns the number of processes whose suffix read set
// has size at most k: the x of ♦-(x,k)-stability as witnessed by the
// recorded suffix.
func (rep Report) StableProcesses(k int) int {
	count := 0
	for _, size := range rep.SuffixReadSetSizes {
		if size <= k {
			count++
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
