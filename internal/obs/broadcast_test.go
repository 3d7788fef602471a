package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestBroadcastFanOut(t *testing.T) {
	t.Parallel()
	b := NewBroadcast()
	s1 := b.Subscribe(4)
	s2 := b.Subscribe(4)
	b.Observe(Event{Kind: KindCellStart, Cell: 1, Key: "k", Trial: -1})
	b.Observe(Event{Kind: KindCellFinish, Cell: 1, Key: "k", Trial: -1, Count: 3})
	b.Close()
	for name, s := range map[string]*Subscription{"s1": s1, "s2": s2} {
		var got []Event
		for e := range s.C {
			got = append(got, e)
		}
		if len(got) != 2 || got[0].Kind != KindCellStart || got[1].Count != 3 {
			t.Fatalf("%s received %+v", name, got)
		}
		if s.Lagged() {
			t.Fatalf("%s marked lagged", name)
		}
	}
}

// TestBroadcastDropsLagged: a full subscriber buffer never blocks the
// emitter — the subscriber is dropped and its channel closed.
func TestBroadcastDropsLagged(t *testing.T) {
	t.Parallel()
	b := NewBroadcast()
	slow := b.Subscribe(1)
	fast := b.Subscribe(8)
	b.Observe(Event{Kind: KindTrialStart, Cell: 0, Trial: 0}) // fills slow's buffer
	b.Observe(Event{Kind: KindTrialStart, Cell: 0, Trial: 1}) // drops slow
	if b.Subscribers() != 1 {
		t.Fatalf("want 1 surviving subscriber, got %d", b.Subscribers())
	}
	// slow: one buffered event, then a closed channel, Lagged set.
	if e, ok := <-slow.C; !ok || e.Trial != 0 {
		t.Fatalf("slow first receive: %+v ok=%v", e, ok)
	}
	if _, ok := <-slow.C; ok {
		t.Fatal("slow channel not closed after drop")
	}
	if !slow.Lagged() {
		t.Fatal("dropped subscriber not marked lagged")
	}
	// fast still receives everything.
	b.Close()
	n := 0
	for range fast.C {
		n++
	}
	if n != 2 || fast.Lagged() {
		t.Fatalf("fast received %d events (lagged %v), want 2", n, fast.Lagged())
	}
}

func TestBroadcastCancelAndLateSubscribe(t *testing.T) {
	t.Parallel()
	b := NewBroadcast()
	s := b.Subscribe(2)
	s.Cancel()
	s.Cancel() // idempotent
	if _, ok := <-s.C; ok {
		t.Fatal("canceled channel still open")
	}
	if b.Subscribers() != 0 {
		t.Fatalf("canceled subscriber still attached: %d", b.Subscribers())
	}
	b.Observe(Event{Kind: KindCellStart}) // no subscribers: no-op
	b.Close()
	b.Close() // idempotent
	late := b.Subscribe(2)
	if _, ok := <-late.C; ok {
		t.Fatal("late subscriber to a closed broadcast got an open channel")
	}
	late.Cancel() // safe after close
}

// TestLateSubscribeCostsNoBuffer: a subscription to a closed broadcast
// (a GET of a finished run's stream) is closed, on a channel of no
// capacity, and allocates only itself, whatever buffer it asked for.
func TestLateSubscribeCostsNoBuffer(t *testing.T) {
	b := NewBroadcast()
	b.Close()
	var late *Subscription
	allocs := testing.AllocsPerRun(100, func() { late = b.Subscribe(4096) })
	if allocs > 1 {
		t.Fatalf("a late Subscribe(4096) made %v allocations, want the subscription alone", allocs)
	}
	if cap(late.C) != 0 {
		t.Fatalf("late subscription's channel has capacity %d, want 0", cap(late.C))
	}
	if _, ok := <-late.C; ok || late.Lagged() {
		t.Fatal("late subscription is open, or marked lagged")
	}
	late.Cancel()
	if _, ok := <-b.Subscribe(1).C; ok {
		t.Fatal("a second late subscription after a Cancel is open")
	}
}

// TestAppendJSONAllKinds: every kind renders one valid JSON object with
// its kind name in "ev".
func TestAppendJSONAllKinds(t *testing.T) {
	t.Parallel()
	for k := KindCampaignStart; k <= KindCacheCorrupt; k++ {
		e := Event{Kind: k, Cell: 2, Key: "key\"with\tescapes", Trial: 1,
			Seed: 42, Step: 7, Round: 3, Count: 5, Silent: true, Legit: true,
			Recovered: true, Radius: 2}
		buf := e.AppendJSON(nil)
		var obj map[string]any
		if err := json.Unmarshal(buf, &obj); err != nil {
			t.Fatalf("kind %s: invalid JSON %q: %v", k, buf, err)
		}
		if obj["ev"] != k.String() {
			t.Fatalf("kind %s: ev = %v", k, obj["ev"])
		}
	}
	// Appending reuses the prefix.
	e := Event{Kind: KindCellStart, Cell: 0, Key: "k", Trial: -1}
	buf := e.AppendJSON([]byte("prefix-"))
	if string(buf[:7]) != "prefix-" {
		t.Fatalf("AppendJSON did not append: %q", buf)
	}
}

// TestAppendJSONMatchesCanonicalFields: for every canonical kind the
// replay line is `{"seq":N,` + the live object's members + newline, so
// clients can correlate the streams; the literal lines pin the field
// order both encodings share.
func TestAppendJSONMatchesCanonicalFields(t *testing.T) {
	t.Parallel()
	e := Event{Cell: 3, Key: "k<\"1\">", Trial: 2, Seed: 1<<64 - 1,
		Silent: true, Legit: false, Step: 11, Round: 4, Count: 1}
	want := map[Kind]string{
		KindCampaignStart:  `{"seq":0,"ev":"campaign-start","key":"k\u003c\"1\"\u003e","cells":1}`,
		KindCampaignFinish: `{"seq":0,"ev":"campaign-finish","key":"k\u003c\"1\"\u003e","cells":1}`,
		KindCellStart:      `{"seq":0,"ev":"cell-start","cell":3,"key":"k\u003c\"1\"\u003e"}`,
		KindCellFinish:     `{"seq":0,"ev":"cell-finish","cell":3,"key":"k\u003c\"1\"\u003e","trials":1}`,
		KindTrialStart:     `{"seq":0,"ev":"trial-start","cell":3,"trial":2,"seed":18446744073709551615}`,
		KindTrialFinish:    `{"seq":0,"ev":"trial-finish","cell":3,"trial":2,"silent":true,"legit":false,"steps":11,"rounds":4,"injections":1}`,
	}
	for k := KindCampaignStart; k <= KindCacheCorrupt; k++ {
		if _, pinned := want[k]; pinned != k.Canonical() {
			t.Fatalf("kind %s: canonical %v but pinned %v", k, k.Canonical(), pinned)
		}
		if !k.Canonical() {
			continue
		}
		e.Kind = k
		sink := NewReplaySink()
		sink.Observe(e)
		var log bytes.Buffer
		if err := sink.WriteCanonical(&log); err != nil {
			t.Fatal(err)
		}
		canon := log.String()
		if canon != want[k]+"\n" {
			t.Errorf("kind %s: canonical line\n got %s want %s", k, canon, want[k])
		}
		live := string(e.AppendJSON(nil))
		if canon != `{"seq":0,`+live[1:]+"\n" {
			t.Errorf("kind %s: canonical line %q is not seq + live object %q", k, canon, live)
		}
	}
}
