package campaign

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// benchPlan is the 80-cell × 10-trial shape of bench/campaigns/plain.campaign
// with synthetic records: what a warm pass decodes and renders.
func benchPlan(tb testing.TB) (*Plan, [][]TrialRecord) {
	tb.Helper()
	spec, err := Parse("campaign bench\ntrials 10\ngraph cycle 8..84/4\nprotocol coloring mis\ndaemon synchronous central-rr\n")
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := Compile(spec, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if len(plan.Cells) != 80 {
		tb.Fatalf("%d cells, want 80", len(plan.Cells))
	}
	return plan, syntheticRecords(plan)
}

// syntheticRecords draws every cell of plan its trial budget of
// plausible records.
func syntheticRecords(plan *Plan) [][]TrialRecord {
	r := rng.New(1)
	recs := make([][]TrialRecord, len(plan.Cells))
	for i := range recs {
		recs[i] = make([]TrialRecord, plan.Spec.Trials)
		for j := range recs[i] {
			steps := 200 + r.Intn(20000)
			recs[i][j] = TrialRecord{
				Silent: true, Legitimate: true, Steps: steps, Rounds: steps / 50,
				Moves: int64(steps) * 3, Selections: int64(steps) * 5, DisabledSelections: int64(steps),
				CommWrites: int64(steps) * 2, KEfficiency: 1 + r.Intn(4), CommBits: 2 + r.Intn(9),
				TotalBits: int64(steps) * 40, TotalReads: int64(steps) * 12, MaxBallRadius: -1,
			}
		}
	}
	return recs
}

// benchOutcome is benchPlan's records as a finished run's Outcome.
func benchOutcome(tb testing.TB) *Outcome {
	plan, recs := benchPlan(tb)
	out := &Outcome{Plan: plan, Results: make([]CellResult, len(plan.Cells))}
	for i := range out.Results {
		out.Results[i] = CellResult{Cell: &plan.Cells[i], Records: recs[i]}
	}
	return out
}

var benchSink int

// BenchmarkEntryCodec times the store and load halves of the cache codec
// over one plan's worth of entries.
func BenchmarkEntryCodec(b *testing.B) {
	plan, recs := benchPlan(b)
	fps := make([]string, len(plan.Cells))
	entries := make([][]byte, len(plan.Cells))
	size := 0
	for i := range plan.Cells {
		fps[i] = plan.cellFingerprint(&plan.Cells[i])
		entries[i] = encodeEntry(fps[i], recs[i])
		size += len(entries[i])
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i := range recs {
				benchSink += len(encodeEntry(fps[i], recs[i]))
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i := range entries {
				_, got, err := decodeEntry(entries[i])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(got)
			}
		}
	})
}

// countWriter counts the bytes it is handed.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkWriteJSONL times rendering one plan's records with the
// default metric selection.
func BenchmarkWriteJSONL(b *testing.B) {
	out := benchOutcome(b)
	var w countWriter
	if err := out.WriteJSONL(&w); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := out.WriteJSONL(&w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutcomeTable times building and rendering one plan's summary
// table: what a render pays after WriteJSONL.
func BenchmarkOutcomeTable(b *testing.B) {
	out := benchOutcome(b)
	b.SetBytes(int64(len(out.Table().String())))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchSink += len(out.Table().String())
	}
}

// BenchmarkCompileHitPath times what a fully cached run pays before its
// first cache probe: Compile over the three benchmark campaigns, and
// nothing materialized after it.
func BenchmarkCompileHitPath(b *testing.B) {
	var specs []*Spec
	for _, name := range []string{"plain", "fault", "churn"} {
		specs = append(specs, benchCampaign(b, name).Spec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, spec := range specs {
			plan, err := Compile(spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(plan.Cells)
		}
	}
}

// TestWarmPathAllocations holds the serving path's allocation counts:
// what a cache hit costs is syscalls and these. A warm Execute of
// bench/campaigns/plain.campaign over a filled MemBackend, a ReplaySink
// attached, stays under 12 a cell (fingerprint, hash, decoded records and
// the sink's buffer are the ones that scale with cells); the summary
// table, built and rendered, under 32 a row (the boxed cells of AddRow's
// argument list are most of them).
func TestWarmPathAllocations(t *testing.T) {
	plan := benchCampaign(t, "plain")
	be := NewMemBackend()
	for i, recs := range syntheticRecords(plan) {
		if err := plan.StoreCell(be, i, recs); err != nil {
			t.Fatal(err)
		}
	}
	var out *Outcome
	execute := testing.AllocsPerRun(10, func() {
		var err error
		out, err = Execute(context.Background(), plan, RunOptions{Workers: 1, Cache: be, Observer: obs.NewReplaySink()})
		if err != nil {
			t.Fatal(err)
		}
	})
	if out.CacheHits != len(plan.Cells) {
		t.Fatalf("%d of %d cells hit: the pass was not warm", out.CacheHits, len(plan.Cells))
	}
	if perCell := execute / float64(len(plan.Cells)); perCell >= 12 {
		t.Errorf("warm Execute: %.0f allocations, %.1f a cell, want under 12", execute, perCell)
	}
	table := testing.AllocsPerRun(10, func() { benchSink += len(out.Table().String()) })
	if perRow := table / float64(len(out.Results)); perRow >= 32 {
		t.Errorf("Table().String(): %.0f allocations, %.1f a row, want under 32", table, perRow)
	}
}
