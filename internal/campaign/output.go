package campaign

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/obs"
	"repro/internal/stats"
)

// jsonlFlushAt is the buffered size beyond which WriteJSONL hands its
// rendered lines to the writer (checked between cells).
const jsonlFlushAt = 64 << 10

// WriteJSONL streams the outcome as one JSON object per trial, in cell
// order then trial order, with the campaign's selected metrics in
// declaration order. Field order and number formatting are fixed, so
// the bytes are identical across parallelism, sharding (concatenate
// shard outputs in shard order) and cache state.
//
// Rendering only appends: the `,"name":` member prefixes are built once
// per call and the `{"cell":N,"key":"...","trial":` line head once per
// cell, so a trial costs one copy of each plus a strconv.Append per
// value.
func (o *Outcome) WriteJSONL(w io.Writer) error {
	type column struct {
		prefix []byte
		metricDef
	}
	columns := make([]column, len(o.Plan.Spec.Metrics))
	for i, name := range o.Plan.Spec.Metrics {
		m, ok := metricByName(name)
		if !ok {
			return fmt.Errorf("campaign: unknown metric %q", name)
		}
		prefix := obs.AppendJSONString([]byte{','}, m.name)
		columns[i] = column{prefix: append(prefix, ':'), metricDef: m}
	}
	// Room for one cell past the flush mark, so the buffer rarely grows.
	buf := make([]byte, 0, jsonlFlushAt+jsonlFlushAt/8)
	var head []byte
	for i := range o.Results {
		r := &o.Results[i]
		head = append(head[:0], `{"cell":`...)
		head = strconv.AppendInt(head, int64(r.Cell.Index), 10)
		head = append(head, `,"key":`...)
		head = obs.AppendJSONString(head, r.Cell.Key)
		head = append(head, `,"trial":`...)
		for trial := range r.Records {
			rec := &r.Records[trial]
			buf = append(buf, head...)
			buf = strconv.AppendInt(buf, int64(trial), 10)
			for c := range columns {
				buf = append(buf, columns[c].prefix...)
				buf = columns[c].appendValue(buf, rec)
			}
			buf = append(buf, '}', '\n')
		}
		if len(buf) >= jsonlFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// Table renders the outcome as a per-cell summary table: one row per
// owned cell, a realized-trials column, then one column per selected
// metric. Boolean metrics report the count of true trials as "t/T";
// numeric metrics report the mean over trials followed by a "±ci95"
// column holding the 95% CI half-width on that mean ("n/a" below two
// trials, where no interval exists).
func (o *Outcome) Table() *stats.Table {
	spec := o.Plan.Spec
	headers := []string{"cell", "key", "trials"}
	for _, name := range spec.Metrics {
		headers = append(headers, name)
		if m, ok := metricByName(name); ok && m.boolVal == nil {
			headers = append(headers, "±ci95")
		}
	}
	trialsDesc := fmt.Sprintf("%d trials", spec.Trials)
	if spec.Stop.Enabled() {
		trialsDesc = fmt.Sprintf("adaptive trials (stop %s)", spec.Stop)
	}
	title := fmt.Sprintf("campaign %s: %d cells × %s (seed %d)",
		spec.Name, len(o.Plan.Cells), trialsDesc, spec.Seed)
	if len(o.Results) != len(o.Plan.Cells) {
		title += fmt.Sprintf(", showing %d owned cells", len(o.Results))
	}
	t := stats.NewTable(title, headers...)
	var ratio []byte
	for i := range o.Results {
		r := &o.Results[i]
		row := make([]any, 0, len(headers))
		row = append(row, r.Cell.Index, r.Cell.Key, len(r.Records))
		for _, name := range spec.Metrics {
			// A hand-built Spec can carry a selector Parse would have
			// rejected; render it as unknown rather than panicking.
			m, ok := metricByName(name)
			if !ok {
				row = append(row, "?")
				continue
			}
			if m.boolVal != nil {
				trues := 0
				for j := range r.Records {
					if m.boolVal(&r.Records[j]) {
						trues++
					}
				}
				ratio = strconv.AppendInt(ratio[:0], int64(trues), 10)
				ratio = append(ratio, '/')
				ratio = strconv.AppendInt(ratio, int64(len(r.Records)), 10)
				row = append(row, string(ratio))
				continue
			}
			mean, ci := aggregate(m, r.Records)
			row = append(row, mean, ci)
		}
		t.AddRow(row...)
	}
	return t
}

// aggregate folds one numeric metric over a cell's trials into its mean
// and the 95% CI half-width on that mean ("n/a" below two trials).
func aggregate(m metricDef, records []TrialRecord) (mean float64, ci any) {
	var s stats.Stream
	for i := range records {
		s.Add(float64(m.intVal(&records[i])))
	}
	if s.N() < 2 {
		return s.Mean(), "n/a"
	}
	return s.Mean(), s.CI95Half()
}

// streamFlushAt is the buffered size beyond which WriteStream hands its
// lines to the writer.
const streamFlushAt = 32 << 10

// WriteStream writes the stream a run served wholly from the cache
// emits, Replay's events, as the daemon's progress stream encodes them:
// each event's JSON object and a newline.
func (o *Outcome) WriteStream(w io.Writer) error {
	s := streamWriter{w: w, buf: make([]byte, 0, streamFlushAt+streamFlushAt/4)}
	o.Replay(&s)
	if s.err == nil {
		_, s.err = w.Write(s.buf)
	}
	return s.err
}

// streamWriter is the observer WriteStream replays into.
type streamWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (s *streamWriter) Observe(e obs.Event) {
	if s.err != nil {
		return
	}
	s.buf = append(e.AppendJSON(s.buf), '\n')
	if len(s.buf) >= streamFlushAt {
		_, s.err = s.w.Write(s.buf)
		s.buf = s.buf[:0]
	}
}
