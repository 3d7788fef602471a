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
// the Report afterwards. The report carries the read sets as a histogram
// of their sizes, which is all the stability count needs, so it costs
// O(Δ) however many processes there are.
package trace

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/model"
)

// sparseThreshold bounds the systems whose read sets are kept as dense
// n-bit bitsets. A process only ever reads its neighbors, so every read
// set R_p has at most degree(p) members — yet the dense representation
// charges n bits per process, O(n²) bytes per recorder, which is the
// memory wall at large n (10⁶ processes ≈ 125 GB). Above the threshold
// the recorder keeps every read set in one int32 slab (see
// Recorder.runs): O(Σ degree) memory total and O(degree) per insertion,
// which is what makes million-process recordings fit in RAM. Both
// representations produce identical reports
// (TestSparseRecorderMatchesDense); it is a var only so tests can force
// the sparse path at small n.
//
// Ablated in PR 13, with insertion down to one probe per distinct
// neighbor: sparse-always (threshold 0) ran the 19-experiment registry
// at 50 trials in 0.638 s against 0.611 s dense (+4 %, 2 of 10
// alternating pairs won), so the dense form keeps its place below the
// threshold.
var sparseThreshold = 4096

// firstRow is the room of a process's first run in the sparse slab: a
// read set of up to firstRow members (every one at Δ ≤ 4) never moves.
const firstRow = 4

// Recorder accumulates read/step/move statistics for one execution. The
// engine delivers each selection's reads already folded (distinct
// neighbors, deduplicated bits), and the selections it replays as
// counted calls: one per disabled process whose verdict stood, and one
// per silent-phase memo state. So the recorder keeps no per-step state
// and allocates nothing on the steady-state path. A Recorder is
// reusable: Reset rewinds it to the state of a fresh NewRecorder without
// reallocating, which is what lets the trial pipeline run millions of
// executions through one recorder per worker.
//
// The only per-process state is the read set R_p since the last
// MarkSuffix (or Reset): ♦-(x,k)-stability needs nothing else.
type Recorder struct {
	n      int
	sparse bool // n > sparseThreshold: slab-backed read sets

	maxStepReads int // max distinct neighbors any process read in one step
	maxStepBits  int // max bits any process read in one step

	read []*bitset.Set // dense form: read[p] = R_p
	// runs and slab are the sparse form: R_p is slab[runs[p].off:][:runs[p].len],
	// each member once. Every process starts in its first row,
	// slab[p*firstRow:(p+1)*firstRow]; a run that fills up moves to the
	// slab's end with twice its room (see add).
	runs []run
	slab []int32

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

// run addresses one process's read set in the sparse slab. A run in its
// first row has room for firstRow members; a moved run was given twice
// the members it held, a power of two, and then one more, so it holds
// more than half its room and is full exactly when len is a power of
// two.
type run struct{ off, len int32 }

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
			if n > math.MaxInt32/firstRow {
				panic(fmt.Sprintf("trace: %d processes overflow the read-set slab", n))
			}
			r.read = nil
			r.runs = make([]run, n)
			r.slab = make([]int32, n*firstRow)
		} else {
			r.runs, r.slab = nil, nil
			r.read = make([]*bitset.Set, n)
			for p := range r.read {
				r.read[p] = bitset.New(n)
			}
		}
	}
	r.clearReadSets()
	r.maxStepReads, r.maxStepBits = 0, 0
	r.totalBits, r.totalReads = 0, 0
	r.moves, r.disabledSelections, r.selections, r.commWrites = 0, 0, 0, 0
	r.steps, r.rounds = 0, 0
	r.clearSuffixCounts()
}

// clearReadSets empties every R_p; the sparse form puts every run back
// in its first row and drops the moved ones, keeping the slab's storage.
func (r *Recorder) clearReadSets() {
	if !r.sparse {
		for _, set := range r.read {
			set.Clear()
		}
		return
	}
	for p := range r.runs {
		r.runs[p] = run{off: int32(p * firstRow)}
	}
	r.slab = r.slab[:r.n*firstRow]
}

func (r *Recorder) clearSuffixCounts() {
	r.suffixSteps, r.suffixRounds = 0, 0
	r.suffixBits, r.suffixReads = 0, 0
	r.suffixSelections, r.suffixMoves = 0, 0
}

var _ model.Observer = (*Recorder)(nil)

// add puts q into the sparse read set of p if it is absent. Read sets
// only ever hold neighbors of one process, so the dedup scan is
// O(degree), never O(n). A full run moves to the slab's end with twice
// its room; the run it leaves is dead until the next MarkSuffix or
// Reset rewinds the slab.
func (r *Recorder) add(p int, q int32) {
	rn := &r.runs[p]
	members := r.slab[rn.off : rn.off+rn.len]
	if slices.Contains(members, q) {
		return
	}
	full := rn.len == firstRow
	if int(rn.off) >= r.n*firstRow {
		full = rn.len&(rn.len-1) == 0
	}
	if full {
		off := len(r.slab)
		if off+2*len(members) > math.MaxInt32 {
			panic("trace: read-set slab exceeds 2³¹ − 1 members")
		}
		r.slab = slices.Grow(r.slab, 2*len(members))[:off+2*len(members)]
		copy(r.slab[off:], members)
		rn.off = int32(off)
	}
	r.slab[rn.off+rn.len] = q
	rn.len++
}

// suffixSize returns |R_p| since the last MarkSuffix.
func (r *Recorder) suffixSize(p int) int {
	if r.sparse {
		return int(r.runs[p].len)
	}
	return r.read[p].Count()
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
		for _, q := range neighbors {
			r.add(p, int32(q))
		}
		return
	}
	set := r.read[p]
	for _, q := range neighbors {
		set.Add(q)
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
		SuffixReadSetHist:  rep.SuffixReadSetHist[:0],
		SuffixSteps:        r.suffixSteps,
		SuffixRounds:       r.suffixRounds,
		SuffixTotalBits:    r.suffixBits,
		SuffixTotalReads:   r.suffixReads,
		SuffixSelections:   r.suffixSelections,
		SuffixMoves:        r.suffixMoves,
	}
	for p := 0; p < r.n; p++ {
		size := r.suffixSize(p)
		for len(rep.SuffixReadSetHist) <= size {
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
