package stats

import (
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Fatal("confidence interval does not bracket the mean")
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary wrong")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single summary wrong: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestSummaryBoundsQuick(t *testing.T) {
	check := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Keep magnitudes sane so the mean cannot overflow.
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		s := Summarize(xs)
		if s.N == 0 {
			return true
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P90 <= s.Max && s.P90 >= s.Min
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "graph", "rounds", "ratio")
	tb.AddRow("path-8", 12, 1.5)
	tb.AddRow("cycle-99", 5, 0.25)
	out := tb.String()
	for _, frag := range []string{"demo", "graph", "path-8", "cycle-99", "1.50", "0.25", "---"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("table output missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("m", "a", "b")
	tb.AddRow(1, 2)
	md := tb.Markdown()
	if !strings.Contains(md, "### m") || !strings.Contains(md, "| a | b |") ||
		!strings.Contains(md, "| --- | --- |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown wrong:\n%s", md)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("title is not emitted", "name", "value", "note")
	tb.AddRow("plain", 1.5, "ok")
	tb.AddRow("comma,cell", 2, `quote "q" cell`)
	tb.AddRow("newline\ncell", 3, "tail")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "title") {
		t.Fatalf("CSV must not emit the title:\n%s", out)
	}
	// Quoting-correctness: a conforming reader must round-trip the cells.
	rd := csv.NewReader(strings.NewReader(out))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not re-parse: %v\n%s", err, out)
	}
	want := [][]string{
		{"name", "value", "note"},
		{"plain", "1.50", "ok"},
		{"comma,cell", "2", `quote "q" cell`},
		{"newline\ncell", "3", "tail"},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d:\n%s", len(recs), len(want), out)
	}
	for i := range want {
		for j := range want[i] {
			if recs[i][j] != want[i][j] {
				t.Fatalf("record[%d][%d] = %q, want %q", i, j, recs[i][j], want[i][j])
			}
		}
	}
	// The raw bytes must actually quote the hazardous cells.
	if !strings.Contains(out, `"comma,cell"`) || !strings.Contains(out, `"quote ""q"" cell"`) {
		t.Fatalf("hazardous cells not quoted:\n%s", out)
	}
}

// TestTableTypedCellsMatchSprintf: the cells AddRow formats without fmt
// read as fmt would print them (a string and an int as %v, a float64 as
// %.2f), over the values a formatter of its own could get wrong: signs,
// -0.0, NaN, the infinities, exact halves (which round to even),
// subnormals, and integers too large for the fast path. Other types
// still go through %v.
func TestTableTypedCellsMatchSprintf(t *testing.T) {
	t.Parallel()
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.004, 0.005, 0.0050000000000000001, 0.015, 0.025, 0.125, 0.375, -0.125,
		2.675, 1.005, 99.995, 999999.995, -1234.5678, 1e-300, -1e-300, math.SmallestNonzeroFloat64,
		1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e15 + 0.125, 4503599627370495.5, 1e20, -1e22, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		floats = append(floats,
			math.Float64frombits(r.Uint64()),         // any exponent
			float64(r.Int63n(1<<30))/8,               // exact halves and quarters of a hundredth's neighbours
			float64(r.Int63n(1<<40))/200,             // a hair either side of a half
			r.NormFloat64()*1e4,                      // table-sized values
			float64(r.Int63n(1<<50))/float64(1+i%97), // means of integer samples
		)
	}
	for _, v := range floats {
		tb := NewTable("", "v")
		tb.AddRow(v)
		if got, want := tb.Rows[0][0], fmt.Sprintf("%.2f", v); got != want {
			t.Fatalf("float64 %v (bits %#x): cell %q, %%.2f prints %q", v, math.Float64bits(v), got, want)
		}
	}
	for _, v := range []int{0, 7, -7, 255, 256, 1e9, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64} {
		tb := NewTable("", "v")
		tb.AddRow(v)
		if got, want := tb.Rows[0][0], fmt.Sprintf("%v", v); got != want {
			t.Fatalf("int %d: cell %q, %%v prints %q", v, got, want)
		}
	}
	mixed := []any{"", "text", "±ci95", true, int64(-5), uint8(200), 2.5, float32(2.5), []int{1, 2}, nil, "tail"}
	tb := NewTable("", "v")
	tb.AddRow(mixed...)
	for i, c := range mixed {
		want := fmt.Sprintf("%v", c)
		if _, isFloat := c.(float64); isFloat {
			want = fmt.Sprintf("%.2f", c)
		}
		if got := tb.Rows[0][i]; got != want {
			t.Fatalf("cell %d (%T): %q, want %q", i, c, got, want)
		}
	}
}

// TestTableWidthsAreByteWidths: a column is as wide as its longest cell
// in bytes, not in runes: the campaign tables' "±ci95" header counts 6,
// and every golden table was rendered that way.
func TestTableWidthsAreByteWidths(t *testing.T) {
	t.Parallel()
	tb := NewTable("t", "key", "±ci95", "n")
	tb.AddRow("a", 1.5, 3)
	tb.AddRow("long-key", 12345.678, 10)
	want := "t\n" +
		"key       ±ci95    n\n" + // 6 bytes + 2 of padding: one column short to the eye
		"--------  --------  --\n" +
		"a         1.50      3\n" +
		"long-key  12345.68  10\n"
	if got := tb.String(); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
	narrow := NewTable("", "±ci95", "n")
	narrow.AddRow("n/a", 1)
	if got, want := narrow.String(), "±ci95  n\n------  -\nn/a     1\n"; got != want {
		t.Fatalf("rendered\n%q\nwant\n%q", got, want)
	}
	// Padding longer than the fill it is copied from.
	wide := NewTable("", "k", "v")
	wide.AddRow(strings.Repeat("x", 150), 1)
	wide.AddRow("y", 2)
	want = "k" + strings.Repeat(" ", 149) + "  v\n" + strings.Repeat("-", 150) + "  -\n" +
		strings.Repeat("x", 150) + "  1\n" + "y" + strings.Repeat(" ", 149) + "  2\n"
	if got := wide.String(); got != want {
		t.Fatalf("wide column rendered\n%q\nwant\n%q", got, want)
	}
}

var benchSink int

// BenchmarkTable times a summary table the size of a campaign's (80
// rows of a key, two counts and ten mean/interval pairs), built through
// AddRow and rendered.
func BenchmarkTable(b *testing.B) {
	headers := []string{"cell", "key", "trials"}
	for i := 0; i < 10; i++ {
		headers = append(headers, "metric-"+strconv.Itoa(i), "±ci95")
	}
	row := []any{0, "torus-20x20|matching|laziest-fair|0", 10}
	for i := 0; i < 10; i++ {
		row = append(row, 1234.5678*float64(i+1), 12.345/float64(i+1))
	}
	build := func() string {
		t := NewTable("bench", headers...)
		for i := 0; i < 80; i++ {
			row[0] = i
			t.AddRow(row...)
		}
		return t.String()
	}
	b.SetBytes(int64(len(build())))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchSink += len(build())
	}
}
