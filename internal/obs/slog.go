package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// SlogSink forwards every event — canonical and diagnostic — to a
// *slog.Logger as structured attributes. Trial-scoped kinds (trial
// start/finish, silence, injection, recovery) log at Debug, everything
// else (campaign/cell lifecycle, cache traffic) at Info, so `-log-level
// info` narrates a run at cell granularity and `-log-level debug`
// exposes the full event stream. slog handlers stamp wall-clock time:
// this sink is for live observation, never for determinism-gated logs
// (use ReplaySink for those).
type SlogSink struct{ l *slog.Logger }

// NewSlogSink wraps l (nil uses slog.Default()).
func NewSlogSink(l *slog.Logger) SlogSink {
	if l == nil {
		l = slog.Default()
	}
	return SlogSink{l: l}
}

// LogLevelSink returns the live sink a command's -log-level flag names,
// logging JSON to w: nil for "off" or "", an Info handler for "info"
// (cell granularity), a Debug handler for "debug" (every trial).
func LogLevelSink(level string, w io.Writer) (Observer, error) {
	lvl := slog.LevelInfo
	switch level {
	case "off", "":
		return nil, nil
	case "info":
	case "debug":
		lvl = slog.LevelDebug
	default:
		return nil, fmt.Errorf("bad -log-level %q (want off, info or debug)", level)
	}
	return NewSlogSink(slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lvl}))), nil
}

func level(k Kind) slog.Level {
	switch k {
	case KindTrialStart, KindTrialFinish, KindSilence, KindInjection, KindRecovery, KindTopology:
		return slog.LevelDebug
	}
	return slog.LevelInfo
}

// Observe logs the event. Safe for concurrent use (slog handlers are).
func (s SlogSink) Observe(e Event) {
	ctx := context.Background()
	lvl := level(e.Kind)
	if !s.l.Enabled(ctx, lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 10)
	if e.Cell >= 0 {
		attrs = append(attrs, slog.Int("cell", e.Cell))
	}
	if e.Key != "" {
		attrs = append(attrs, slog.String("key", e.Key))
	}
	if e.Trial >= 0 {
		attrs = append(attrs, slog.Int("trial", e.Trial))
	}
	switch e.Kind {
	case KindCampaignStart, KindCampaignFinish:
		attrs = append(attrs, slog.Int("cells", e.Count))
	case KindCellFinish:
		attrs = append(attrs, slog.Int("trials", e.Count))
	case KindTrialStart:
		attrs = append(attrs, slog.Uint64("seed", e.Seed))
	case KindTrialFinish:
		attrs = append(attrs,
			slog.Bool("silent", e.Silent), slog.Bool("legit", e.Legit),
			slog.Int("steps", e.Step), slog.Int("rounds", e.Round),
			slog.Int("injections", e.Count))
	case KindSilence:
		attrs = append(attrs, slog.Int("step", e.Step), slog.Int("round", e.Round))
	case KindInjection:
		attrs = append(attrs, slog.Int("step", e.Step), slog.Int("faulted", e.Count))
		if e.Radius >= 0 {
			attrs = append(attrs, slog.Int("ballRadius", e.Radius))
		}
	case KindTopology:
		attrs = append(attrs, slog.Int("step", e.Step), slog.Int("affected", e.Count))
	case KindRecovery:
		attrs = append(attrs,
			slog.Bool("recovered", e.Recovered), slog.Int("rounds", e.Round),
			slog.Int("faulted", e.Count), slog.Int("radius", e.Radius),
			slog.Int("step", e.Step))
	}
	s.l.LogAttrs(ctx, lvl, e.Kind.String(), attrs...)
}
