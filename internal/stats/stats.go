// Package stats provides the small set of summary statistics and table
// rendering used by the experiment harness. Stdlib only.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	P90, P99       float64
	CI95Lo, CI95Hi float64 // normal-approximation confidence interval on the mean
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		varSum := 0.0
		for _, x := range sorted {
			d := x - s.Mean
			varSum += d * d
		}
		s.Std = math.Sqrt(varSum / float64(s.N-1))
	}
	s.Median = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	half := 1.96 * s.Std / math.Sqrt(float64(s.N))
	s.CI95Lo, s.CI95Hi = s.Mean-half, s.Mean+half
	return s
}

// Percentile returns the p-th percentile (0..100) of an already sorted
// sample using linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders aligned textual tables for harness output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. A string is copied as it is, an int prints as %d
// and a float64 as %.2f, all three through strconv; a cell of any other
// type is formatted with %v. The row's cells are rendered into one
// buffer and share the one string made of it.
func (t *Table) AddRow(cells ...any) {
	buf := make([]byte, 0, 256)
	ends := make([]int, 0, 32)
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			buf = append(buf, v...)
		case int:
			buf = strconv.AppendInt(buf, int64(v), 10)
		case float64:
			buf = appendFixed2(buf, v)
		default:
			buf = fmt.Append(buf, c)
		}
		ends = append(ends, len(buf))
	}
	text := string(buf)
	row := make([]string, len(cells))
	start := 0
	for i, end := range ends {
		row[i] = text[start:end]
		start = end
	}
	t.Rows = append(t.Rows, row)
}

// appendFixed2 appends v as strconv formats it with 'f' and two
// decimals, without strconv's multiprecision path (the only one it has
// for a fixed count of decimals). A finite float64 below 2^53 is
// mant/2^shift with mant < 2^53, so its hundredths are the integer
// mant*100 >> shift and the bits shifted out decide the rounding exactly:
// up past the half, to even on it.
func appendFixed2(buf []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp, mant := int(bits>>52&0x7ff), bits&(1<<52-1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	shift := 1075 - exp
	if exp == 0x7ff || shift < 0 {
		return strconv.AppendFloat(buf, v, 'f', 2, 64) // NaN, ±Inf, 2^53 and beyond
	}
	var cents uint64
	if shift < 64 { // at 64 and beyond v*100 is under 1/16
		n := mant * 100
		cents = n >> shift
		if shift > 0 {
			rest, half := n&(1<<shift-1), uint64(1)<<(shift-1)
			if rest > half || rest == half && cents&1 == 1 {
				cents++
			}
		}
	}
	if bits>>63 != 0 {
		buf = append(buf, '-')
	}
	buf = strconv.AppendUint(buf, cents/100, 10)
	return append(buf, '.', byte('0'+cents%100/10), byte('0'+cents%10))
}

// Padding is copied out of these, a run at a time.
const (
	spaces = "                                                                "
	dashes = "----------------------------------------------------------------"
)

// writeRun appends n bytes of fill, a string of one repeated byte.
func writeRun(sb *strings.Builder, fill string, n int) {
	for ; n > len(fill); n -= len(fill) {
		sb.WriteString(fill)
	}
	if n > 0 {
		sb.WriteString(fill[:n])
	}
}

// String renders the table with aligned columns. Widths are byte
// lengths, so a multi-byte header (the campaign tables' "±ci95") pads
// as its bytes.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	// A full line: every column at its width, two spaces between, a newline.
	line := 1
	for _, w := range widths {
		line += w + 2
	}
	var sb strings.Builder
	sb.Grow(len(t.Title) + 1 + line*(len(t.Rows)+2))
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				writeRun(&sb, spaces, widths[i]-len(cell))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		writeRun(&sb, dashes, w)
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV writes the table as RFC 4180 CSV — headers then rows, quoting
// handled by encoding/csv (cells containing commas, quotes or newlines
// round-trip). The title is not emitted: CSV output is data, consumers
// name it by file.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}
