package obs

import (
	"strconv"
	"sync"
)

// Broadcast fans events out to dynamically attached subscribers over
// bounded channels: the live-streaming sink behind the campaign
// service's per-run SSE/JSONL feeds. Delivery is strictly non-blocking
// for the emitting side — a subscriber whose buffer is full is dropped
// (its channel closed, Lagged set) rather than ever stalling an engine
// worker. Progress feeds are best-effort diagnostics; the authoritative
// outputs (records, tables, canonical event log) come from the run's
// ReplaySink and are unaffected by subscriber behavior.
type Broadcast struct {
	mu     sync.Mutex
	subs   []*Subscription
	closed bool
}

// NewBroadcast returns an empty broadcast sink.
func NewBroadcast() *Broadcast { return &Broadcast{} }

// Subscription is one subscriber's bounded event feed. Receive from C
// until it closes: the run finished (Broadcast.Close), the subscriber
// canceled, or it lagged and was dropped (check Lagged to tell the
// difference).
type Subscription struct {
	C <-chan Event

	b      *Broadcast
	ch     chan Event
	done   bool // channel closed (guarded by b.mu)
	lagged bool
}

// Subscribe attaches a subscriber with the given buffer capacity
// (values < 1 get a default of 256 events). Subscribing to a closed
// Broadcast returns an already-closed subscription on a channel of no
// capacity: late clients of a finished run see EOF, not a hang, and
// cost no buffer.
func (b *Broadcast) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 256
	}
	s := &Subscription{b: b}
	b.mu.Lock()
	if b.closed {
		s.ch, s.done = closedFeed, true
	} else {
		s.ch = make(chan Event, buf)
		b.subs = append(b.subs, s)
	}
	b.mu.Unlock()
	s.C = s.ch
	return s
}

// closedFeed is the channel of every subscription made after Close: a
// done subscription never sends on or closes its channel again, so one
// closed channel serves them all.
var closedFeed = func() chan Event {
	ch := make(chan Event)
	close(ch)
	return ch
}()

// Observe implements Observer: non-blocking fan-out. A subscriber with
// no buffer space left is dropped on the spot.
func (b *Broadcast) Observe(e Event) {
	b.mu.Lock()
	for i := 0; i < len(b.subs); {
		s := b.subs[i]
		select {
		case s.ch <- e:
			i++
		default:
			s.lagged = true
			s.done = true
			close(s.ch)
			b.subs[i] = b.subs[len(b.subs)-1]
			b.subs = b.subs[:len(b.subs)-1]
		}
	}
	b.mu.Unlock()
}

// Subscribers reports the number of currently attached subscribers.
func (b *Broadcast) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close detaches and closes every subscriber: the end-of-run signal.
// Idempotent; events observed after Close go nowhere.
func (b *Broadcast) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for _, s := range b.subs {
			s.done = true
			close(s.ch)
		}
		b.subs = nil
	}
	b.mu.Unlock()
}

// Cancel detaches the subscription and closes its channel (a client
// disconnect). Safe to call at any time, including after the
// subscription was already dropped or the broadcast closed.
func (s *Subscription) Cancel() {
	s.b.mu.Lock()
	if !s.done {
		s.done = true
		for i, sub := range s.b.subs {
			if sub == s {
				s.b.subs[i] = s.b.subs[len(s.b.subs)-1]
				s.b.subs = s.b.subs[:len(s.b.subs)-1]
				break
			}
		}
		close(s.ch)
	}
	s.b.mu.Unlock()
}

// Lagged reports whether the subscription was dropped for falling
// behind (meaningful once C is closed).
func (s *Subscription) Lagged() bool {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.lagged
}

// AppendJSON renders the event as one live-stream JSON object (no
// trailing newline) with a fixed field order per kind: the canonical
// kinds encode exactly their replay fields (minus the flush-time
// sequence number), diagnostic kinds their own detail fields. Used by
// the campaign service's progress feeds.
func (e Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, '{')
	buf = e.appendMembers(buf)
	return append(buf, '}')
}

// appendMembers writes the event's members, `"ev":"<kind>"` first,
// without the enclosing braces.
func (e Event) appendMembers(buf []byte) []byte {
	buf = append(buf, `"ev":"`...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, '"')
	switch e.Kind {
	case KindCampaignStart, KindCampaignFinish:
		buf = appendKey(buf, e.Key)
		buf = appendIntField(buf, "cells", e.Count)
	case KindCellStart:
		buf = appendCell(buf, e.Cell)
		buf = appendKey(buf, e.Key)
	case KindCellFinish:
		buf = appendCell(buf, e.Cell)
		buf = appendKey(buf, e.Key)
		buf = appendIntField(buf, "trials", e.Count)
	case KindTrialStart:
		buf = appendCell(buf, e.Cell)
		buf = appendIntField(buf, "trial", e.Trial)
		buf = append(buf, `,"seed":`...)
		buf = strconv.AppendUint(buf, e.Seed, 10)
	case KindTrialFinish:
		buf = appendCell(buf, e.Cell)
		buf = appendIntField(buf, "trial", e.Trial)
		buf = appendBoolField(buf, "silent", e.Silent)
		buf = appendBoolField(buf, "legit", e.Legit)
		buf = appendIntField(buf, "steps", e.Step)
		buf = appendIntField(buf, "rounds", e.Round)
		buf = appendIntField(buf, "injections", e.Count)
	case KindCacheHit, KindCacheMiss, KindCacheCorrupt:
		buf = appendCell(buf, e.Cell)
		buf = appendKey(buf, e.Key)
	case KindSilence:
		buf = appendCell(buf, e.Cell)
		buf = appendIntField(buf, "trial", e.Trial)
		buf = appendIntField(buf, "steps", e.Step)
		buf = appendIntField(buf, "rounds", e.Round)
	case KindInjection, KindTopology:
		buf = appendCell(buf, e.Cell)
		buf = appendIntField(buf, "trial", e.Trial)
		buf = appendIntField(buf, "step", e.Step)
		buf = appendIntField(buf, "count", e.Count)
	case KindRecovery:
		buf = appendCell(buf, e.Cell)
		buf = appendIntField(buf, "trial", e.Trial)
		buf = appendBoolField(buf, "recovered", e.Recovered)
		buf = appendIntField(buf, "rounds", e.Round)
		buf = appendIntField(buf, "radius", e.Radius)
	}
	return buf
}

func appendCell(buf []byte, cell int) []byte {
	return appendIntField(buf, "cell", cell)
}

// appendKey appends a `,"key":"..."` member (cell keys embed
// template-provided text; see AppendJSONString).
func appendKey(buf []byte, key string) []byte {
	buf = append(buf, `,"key":`...)
	return AppendJSONString(buf, key)
}

func appendIntField(buf []byte, name string, v int) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, int64(v), 10)
}

func appendBoolField(buf []byte, name string, v bool) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendBool(buf, v)
}
