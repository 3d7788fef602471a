package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// benchPlan is the 80-cell × 10-trial shape of bench/campaigns/plain.campaign
// with synthetic records: what a warm pass decodes and renders.
func benchPlan(b *testing.B) (*Plan, [][]TrialRecord) {
	b.Helper()
	spec, err := Parse("campaign bench\ntrials 10\ngraph cycle 8..84/4\nprotocol coloring mis\ndaemon synchronous central-rr\n")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Compile(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	if len(plan.Cells) != 80 {
		b.Fatalf("%d cells, want 80", len(plan.Cells))
	}
	r := rng.New(1)
	recs := make([][]TrialRecord, len(plan.Cells))
	for i := range recs {
		recs[i] = make([]TrialRecord, spec.Trials)
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
	return plan, recs
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
	plan, recs := benchPlan(b)
	out := &Outcome{Plan: plan, Results: make([]CellResult, len(plan.Cells))}
	for i := range out.Results {
		out.Results[i] = CellResult{Cell: &plan.Cells[i], Records: recs[i]}
	}
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

// BenchmarkCompileHitPath times what a fully cached run pays before its
// first cache probe: Compile over the three benchmark campaigns, and
// nothing materialized after it.
func BenchmarkCompileHitPath(b *testing.B) {
	var specs []*Spec
	for _, name := range []string{"plain", "fault", "churn"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "bench", "campaigns", name+".campaign"))
		if err != nil {
			b.Fatal(err)
		}
		spec, err := Parse(string(src))
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
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
