package campaign

import (
	"strconv"

	"repro/internal/core"
)

// TrialRecord is the full per-trial measurement row: every metric the
// engine can report, independent of the campaign's output selection.
// The cache stores complete records so that re-rendering a campaign
// with a different `metrics` line never recomputes cells.
type TrialRecord struct {
	Silent             bool
	Legitimate         bool
	Steps              int
	Rounds             int
	Moves              int64
	Selections         int64
	DisabledSelections int64
	CommWrites         int64
	KEfficiency        int
	CommBits           int
	TotalBits          int64
	TotalReads         int64
	// Fault-campaign fields (zero in plain campaigns; MaxBallRadius is
	// -1 when the adversary does not report a fault ball).
	Injections        int
	Recovered         int
	MaxRecoveryRounds int
	MaxRadius         int
	MaxBallRadius     int
	// ChurnEvents counts topology-churn firings (zero without a churn
	// axis).
	ChurnEvents int
}

// fill populates every metric from a trial result. A plain trial's
// result has an empty fault side, so its fault fields come out zero and
// MaxBallRadius -1.
func (t *TrialRecord) fill(res *core.FaultResult) {
	*t = TrialRecord{
		Silent:             res.Silent,
		Legitimate:         res.LegitimateAtSilence,
		Steps:              res.StepsToSilence,
		Rounds:             res.RoundsToSilence,
		Moves:              res.Report.Moves,
		Selections:         res.Report.Selections,
		DisabledSelections: res.Report.DisabledSelections,
		CommWrites:         res.Report.CommWrites,
		KEfficiency:        res.Report.KEfficiency,
		CommBits:           res.Report.CommComplexityBits,
		TotalBits:          res.Report.TotalBits,
		TotalReads:         res.Report.TotalReads,
		Injections:         res.Injections,
		Recovered:          res.Recovered,
		MaxRecoveryRounds:  res.MaxRecoveryRounds(),
		MaxRadius:          res.MaxRadius(),
		MaxBallRadius:      -1,
		ChurnEvents:        res.ChurnEvents,
	}
	for i := range res.Episodes {
		if res.Episodes[i].BallRadius > t.MaxBallRadius {
			t.MaxBallRadius = res.Episodes[i].BallRadius
		}
	}
}

// metricDef maps a `metrics` selector name to its extraction from a
// TrialRecord: either a boolean (aggregated as a true/trials count) or
// an integer (aggregated as a mean).
type metricDef struct {
	name      string
	faultOnly bool
	boolVal   func(*TrialRecord) bool
	intVal    func(*TrialRecord) int64
}

// metricDefs lists every selector, in the canonical order used by
// documentation; the `metrics` line controls the emission order.
var metricDefs = []metricDef{
	{name: "silent", boolVal: func(t *TrialRecord) bool { return t.Silent }},
	{name: "legitimate", boolVal: func(t *TrialRecord) bool { return t.Legitimate }},
	{name: "steps", intVal: func(t *TrialRecord) int64 { return int64(t.Steps) }},
	{name: "rounds", intVal: func(t *TrialRecord) int64 { return int64(t.Rounds) }},
	{name: "moves", intVal: func(t *TrialRecord) int64 { return t.Moves }},
	{name: "selections", intVal: func(t *TrialRecord) int64 { return t.Selections }},
	{name: "disabled-selections", intVal: func(t *TrialRecord) int64 { return t.DisabledSelections }},
	{name: "comm-writes", intVal: func(t *TrialRecord) int64 { return t.CommWrites }},
	{name: "k-efficiency", intVal: func(t *TrialRecord) int64 { return int64(t.KEfficiency) }},
	{name: "comm-bits", intVal: func(t *TrialRecord) int64 { return int64(t.CommBits) }},
	{name: "total-bits", intVal: func(t *TrialRecord) int64 { return t.TotalBits }},
	{name: "total-reads", intVal: func(t *TrialRecord) int64 { return t.TotalReads }},
	{name: "injections", faultOnly: true, intVal: func(t *TrialRecord) int64 { return int64(t.Injections) }},
	{name: "recovered", faultOnly: true, intVal: func(t *TrialRecord) int64 { return int64(t.Recovered) }},
	{name: "max-recovery-rounds", faultOnly: true, intVal: func(t *TrialRecord) int64 { return int64(t.MaxRecoveryRounds) }},
	{name: "max-radius", faultOnly: true, intVal: func(t *TrialRecord) int64 { return int64(t.MaxRadius) }},
	{name: "max-ball-radius", faultOnly: true, intVal: func(t *TrialRecord) int64 { return int64(t.MaxBallRadius) }},
	{name: "churn-events", faultOnly: true, intVal: func(t *TrialRecord) int64 { return int64(t.ChurnEvents) }},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// MetricNames lists every `metrics` selector in canonical order.
func MetricNames() []string {
	out := make([]string, len(metricDefs))
	for i, m := range metricDefs {
		out[i] = m.name
	}
	return out
}

// appendValue appends the metric's value of t as a JSON literal.
func (m metricDef) appendValue(buf []byte, t *TrialRecord) []byte {
	if m.boolVal != nil {
		return strconv.AppendBool(buf, m.boolVal(t))
	}
	return strconv.AppendInt(buf, m.intVal(t), 10)
}

// defaultMetrics is the selection used when a campaign has no `metrics`
// line; fault campaigns additionally get the episode metrics.
func defaultMetrics(faulted bool) []string {
	base := []string{"silent", "legitimate", "steps", "rounds", "moves", "total-bits"}
	if faulted {
		base = append(base, "injections", "recovered", "max-recovery-rounds", "max-radius")
	}
	return base
}
