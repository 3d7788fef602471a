package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// collector is a test sink recording events in arrival order.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func TestKindStringAndCanonical(t *testing.T) {
	t.Parallel()
	canonical := map[Kind]bool{
		KindCampaignStart: true, KindCampaignFinish: true,
		KindCellStart: true, KindCellFinish: true,
		KindTrialStart: true, KindTrialFinish: true,
	}
	for k := KindCampaignStart; k <= KindCacheCorrupt; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if k.Canonical() != canonical[k] {
			t.Fatalf("kind %s: Canonical() = %v, want %v", k, k.Canonical(), canonical[k])
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds must stringify as unknown")
	}
}

func TestEmitNilAndNop(t *testing.T) {
	t.Parallel()
	Emit(nil, Event{Kind: KindTrialStart}) // must not panic
	Nop{}.Observe(Event{Kind: KindTrialStart})
	var c collector
	Emit(&c, Event{Kind: KindCellStart, Cell: 3})
	if len(c.events) != 1 || c.events[0].Cell != 3 {
		t.Fatalf("Emit did not forward: %+v", c.events)
	}
}

func TestScopeFillsIdentity(t *testing.T) {
	t.Parallel()
	var c collector
	s := Scope{Obs: &c, Cell: 7, Key: "k", Trial: 2}
	s.Emit(Event{Kind: KindSilence, Step: 11, Round: 4})
	if len(c.events) != 1 {
		t.Fatalf("want 1 event, got %d", len(c.events))
	}
	e := c.events[0]
	if e.Cell != 7 || e.Key != "k" || e.Trial != 2 || e.Step != 11 || e.Round != 4 {
		t.Fatalf("scope did not tag identity: %+v", e)
	}
	// The zero scope is a free no-op.
	Scope{}.Emit(Event{Kind: KindSilence})
}

func TestTee(t *testing.T) {
	t.Parallel()
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("no effective sinks must collapse to nil")
	}
	var a, b collector
	if got := Tee(nil, &a, nil); got != &a {
		t.Fatal("single effective sink must collapse to the sink itself")
	}
	both := Tee(&a, &b)
	both.Observe(Event{Kind: KindCacheHit, Cell: 1})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("tee did not fan out: a=%d b=%d", len(a.events), len(b.events))
	}
}

// TestReplaySinkCanonicalOrder: the canonical log is ordered
// campaign-start, cells ascending (emission order within a cell),
// campaign-finish — independent of the interleaving the sink observed —
// with dense monotonic sequence numbers and diagnostic kinds dropped.
func TestReplaySinkCanonicalOrder(t *testing.T) {
	t.Parallel()
	s := NewReplaySink()
	s.Observe(Event{Kind: KindCampaignStart, Cell: -1, Key: "camp", Trial: -1, Count: 2})
	// Cell 1 arrives entirely before cell 0 (a worker interleaving).
	s.Observe(Event{Kind: KindCellStart, Cell: 1, Key: "b", Trial: -1})
	s.Observe(Event{Kind: KindTrialStart, Cell: 1, Key: "b", Trial: 0, Seed: 99})
	s.Observe(Event{Kind: KindCacheMiss, Cell: 0, Key: "a", Trial: -1}) // diagnostic: dropped
	s.Observe(Event{Kind: KindTrialFinish, Cell: 1, Key: "b", Trial: 0, Silent: true, Legit: true, Step: 5, Round: 2})
	s.Observe(Event{Kind: KindCellFinish, Cell: 1, Key: "b", Trial: -1, Count: 1})
	s.Observe(Event{Kind: KindSilence, Cell: 0, Key: "a", Trial: 0, Step: 3}) // diagnostic: dropped
	s.Observe(Event{Kind: KindCellStart, Cell: 0, Key: "a", Trial: -1})
	s.Observe(Event{Kind: KindCellFinish, Cell: 0, Key: "a", Trial: -1, Count: 0})
	s.Observe(Event{Kind: KindCampaignFinish, Cell: -1, Key: "camp", Trial: -1, Count: 2})

	if got, want := s.Events(), 8; got != want {
		t.Fatalf("Events() = %d, want %d canonical events", got, want)
	}
	var buf bytes.Buffer
	if err := s.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("want 8 lines, got %d:\n%s", len(lines), buf.String())
	}
	wantOrder := []string{
		"campaign-start", "cell-start", "cell-finish",
		"cell-start", "trial-start", "trial-finish", "cell-finish",
		"campaign-finish",
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if obj["seq"] != float64(i) {
			t.Fatalf("line %d: seq = %v, want %d", i, obj["seq"], i)
		}
		if obj["ev"] != wantOrder[i] {
			t.Fatalf("line %d: ev = %v, want %s", i, obj["ev"], wantOrder[i])
		}
	}
	// A second write must produce identical bytes (the sink is not
	// consumed) — this is what lets tests diff two flushes.
	var buf2 bytes.Buffer
	if err := s.WriteCanonical(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second WriteCanonical differs from the first")
	}
}

// TestReplaySinkKeyEscaping: cell keys embed template-provided text, so
// the hand-rolled encoder must escape exactly as encoding/json does.
func TestReplaySinkKeyEscaping(t *testing.T) {
	t.Parallel()
	s := NewReplaySink()
	key := "weird\"key\\with\tcontrol\x01bytes"
	s.Observe(Event{Kind: KindCellStart, Cell: 0, Key: key, Trial: -1})
	var buf bytes.Buffer
	if err := s.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	var obj struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("encoded line is not valid JSON: %v\n%s", err, buf.String())
	}
	if obj.Key != key {
		t.Fatalf("key round-trip: got %q, want %q", obj.Key, key)
	}
}

// TestReplaySinkNoWallClock: the canonical encoding must contain no
// timestamp-shaped fields — determinism depends on it.
func TestReplaySinkNoWallClock(t *testing.T) {
	t.Parallel()
	s := NewReplaySink()
	s.Observe(Event{Kind: KindCampaignStart, Cell: -1, Key: "c", Trial: -1})
	s.Observe(Event{Kind: KindTrialStart, Cell: 0, Key: "k", Trial: 0, Seed: 1})
	var buf bytes.Buffer
	if err := s.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"time"`) || strings.Contains(buf.String(), `"ts"`) {
		t.Fatalf("canonical log contains a timestamp field:\n%s", buf.String())
	}
}

// TestSlogSinkLevels: the -log-level vocabulary maps off and "" to no
// sink and rejects anything but info and debug; trial-scoped kinds log
// at Debug and stay silent under info, cell/campaign/cache kinds appear
// at info.
func TestSlogSinkLevels(t *testing.T) {
	t.Parallel()
	for _, level := range []string{"off", ""} {
		if sink, err := LogLevelSink(level, nil); sink != nil || err != nil {
			t.Fatalf("LogLevelSink(%q) = %v, %v, want no sink", level, sink, err)
		}
	}
	if _, err := LogLevelSink("warn", nil); err == nil || err.Error() != `bad -log-level "warn" (want off, info or debug)` {
		t.Fatalf("LogLevelSink(warn) error %v", err)
	}
	var buf bytes.Buffer
	sink, err := LogLevelSink("info", &buf)
	if err != nil {
		t.Fatal(err)
	}
	sink.Observe(Event{Kind: KindTrialStart, Cell: 0, Key: "k", Trial: 0, Seed: 1})
	sink.Observe(Event{Kind: KindSilence, Cell: 0, Key: "k", Trial: 0, Step: 3})
	if buf.Len() != 0 {
		t.Fatalf("trial-scoped events leaked through an info handler:\n%s", buf.String())
	}
	sink.Observe(Event{Kind: KindCellFinish, Cell: 0, Key: "k", Trial: -1, Count: 5})
	if !strings.Contains(buf.String(), `"msg":"cell-finish"`) || !strings.Contains(buf.String(), `"trials":5`) {
		t.Fatalf("cell-finish not logged at info: %s", buf.String())
	}

	buf.Reset()
	debug, err := LogLevelSink("debug", &buf)
	if err != nil {
		t.Fatal(err)
	}
	debug.Observe(Event{Kind: KindRecovery, Cell: 2, Key: "k", Trial: 1, Round: 9, Count: 3, Recovered: true, Radius: 2, Step: 40})
	out := buf.String()
	for _, want := range []string{`"msg":"recovery"`, `"recovered":true`, `"rounds":9`, `"radius":2`, `"cell":2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("recovery log missing %s: %s", want, out)
		}
	}
}
