package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// State is a run's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Run is one submitted campaign: its compiled plan while it waits and
// executes, its live progress broadcast, and — once done — the rendered
// outputs. The registry keeps finished runs, so a finished run holds
// only what a later GET can ask for: the plan (graphs, cells) is dropped
// at completion and the artifacts are exact-size copies.
type Run struct {
	// ID is the registry handle ("run-0001", ...).
	ID string

	name  string // campaign name
	cells int    // campaign cell count
	// plan is read by the dispatcher only, and nil once the run finished.
	plan      *campaign.Plan
	broadcast *obs.Broadcast
	// done closes when the run reaches a terminal state.
	done chan struct{}

	mu     sync.Mutex
	state  State
	err    error
	hits   int
	misses int
	// Terminal outputs, rendered once at completion.
	jsonl, events, table, csv []byte
}

// State returns the run's current phase and terminal error (nil unless
// StateFailed).
func (r *Run) State() (State, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.err
}

// Cells reports the campaign's cell count.
func (r *Run) Cells() int { return r.cells }

// Name reports the campaign's declared name.
func (r *Run) Name() string { return r.name }

// CacheStats reports the run's cache hit/miss split (zeros until done).
func (r *Run) CacheStats() (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// Done returns a channel that closes when the run reaches a terminal
// state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Subscribe attaches a bounded live-event feed (see obs.Broadcast); a
// feed opened after completion is immediately closed.
func (r *Run) Subscribe(buf int) *obs.Subscription { return r.broadcast.Subscribe(buf) }

// Output returns a terminal artifact by name: "jsonl" (per-trial
// records), "events" (canonical event log), "table" (aligned text
// summary), "csv" (CSV summary). It errors until the run is done.
func (r *Run) Output(kind string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StateFailed:
		return nil, fmt.Errorf("run %s failed: %w", r.ID, r.err)
	case StateQueued, StateRunning:
		return nil, fmt.Errorf("run %s is %s; outputs exist once done", r.ID, r.state)
	}
	switch kind {
	case "jsonl":
		return r.jsonl, nil
	case "events":
		return r.events, nil
	case "table":
		return r.table, nil
	case "csv":
		return r.csv, nil
	}
	return nil, fmt.Errorf("%w %q (want jsonl, events, table or csv)", errUnknownOutput, kind)
}

// errUnknownOutput marks an Output kind the API does not serve (the
// HTTP layer maps it to 404 rather than 409).
var errUnknownOutput = errors.New("unknown output")

func (r *Run) setState(s State) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

// Config configures a Service.
type Config struct {
	// Cache is the shared result backend (nil: a fresh in-memory
	// backend — cross-run dedup without persistence).
	Cache campaign.Backend
	// Workers is each run's coordinator worker count (< 1: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submitted-but-not-started backlog (< 1: 16).
	QueueDepth int
	// Steal overrides the work-stealing policy (tests).
	Steal StealPolicy
}

// Service is the daemon core: a run registry and a FIFO job queue
// executing one run at a time (each run parallelizes internally via the
// work-stealing coordinator). All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	cache campaign.Backend
	queue chan *Run

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string
	nextID int
	closed bool
}

// New starts a service (its dispatcher goroutine runs until Shutdown).
func New(cfg Config) *Service {
	if cfg.Cache == nil {
		cfg.Cache = campaign.NewMemBackend()
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 16
	}
	s := &Service{
		cfg:   cfg,
		cache: cfg.Cache,
		queue: make(chan *Run, depth),
		runs:  make(map[string]*Run),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// ErrQueueFull and ErrShuttingDown are the submit refusals that say
// nothing about the spec: the same source is accepted once the backlog
// drains, or by the next daemon. The HTTP layer maps them to 503; every
// other submit error is the spec's and maps to 400.
var (
	ErrQueueFull    = errors.New("service: queue full")
	ErrShuttingDown = errors.New("service: shutting down")
)

// Submit parses and compiles a campaign source, registers it and
// enqueues it for execution. Bad specs are rejected here, at the POST,
// not discovered mid-queue.
func (s *Service) Submit(src string) (*Run, error) {
	r, _, err := s.submit(src, -1)
	return r, err
}

// SubmitStream is Submit with a progress subscription attached before
// the run can start, so the feed observes the run from its very first
// event — a Subscribe after Submit races with execution and misses the
// head of a small campaign. buf is the subscription's buffer (see
// Run.Subscribe). The caller owns the subscription; a failed enqueue
// returns it already closed.
func (s *Service) SubmitStream(src string, buf int) (*Run, *obs.Subscription, error) {
	return s.submit(src, buf)
}

// submit registers and enqueues a run, subscribing to its broadcast
// between registration and enqueue when buf >= 0 (the dispatcher only
// sees the run after the queue send, so the subscription cannot miss
// events).
func (s *Service) submit(src string, buf int) (*Run, *obs.Subscription, error) {
	spec, err := campaign.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	plan, err := campaign.Compile(spec, s.cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w, not accepting runs", ErrShuttingDown)
	}
	s.nextID++
	r := &Run{
		ID:        fmt.Sprintf("run-%04d", s.nextID),
		name:      spec.Name,
		cells:     len(plan.Cells),
		plan:      plan,
		broadcast: obs.NewBroadcast(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	s.mu.Unlock()

	var sub *obs.Subscription
	if buf >= 0 {
		sub = r.Subscribe(buf)
	}
	select {
	case s.queue <- r:
		return r, sub, nil
	default:
		err := fmt.Errorf("%w (%d runs waiting)", ErrQueueFull, cap(s.queue))
		s.finish(r, err)
		return nil, sub, err
	}
}

// Get looks a run up by id.
func (s *Service) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Runs lists the registered runs in submission order.
func (s *Service) Runs() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, len(s.order))
	for i, id := range s.order {
		out[i] = s.runs[id]
	}
	return out
}

// CacheStats reports the shared backend's entry count and total bytes.
func (s *Service) CacheStats() (entries int, bytes int64, err error) {
	return s.cache.Stats()
}

// dispatch executes queued runs FIFO until Shutdown, then fails
// whatever is still queued (their cells were never started; a re-submit
// after restart computes them).
func (s *Service) dispatch() {
	defer s.wg.Done()
	for {
		// Shutdown wins over pending work: once draining, no queued run
		// starts (select alone would pick between ready cases at random).
		select {
		case <-s.ctx.Done():
			s.failQueued()
			return
		default:
		}
		select {
		case <-s.ctx.Done():
			s.failQueued()
			return
		case r := <-s.queue:
			s.execute(r)
		}
	}
}

// failQueued fails every run still waiting in the queue.
func (s *Service) failQueued() {
	for {
		select {
		case r := <-s.queue:
			s.finish(r, errors.New("service: shut down before the run started"))
		default:
			return
		}
	}
}

// execute runs one campaign and renders its terminal outputs.
func (s *Service) execute(r *Run) {
	r.setState(StateRunning)
	replay := obs.NewReplaySink()
	plan := r.plan
	r.plan = nil // a finished run must not pin its plan; out holds it until return
	out, err := Execute(s.ctx, plan, ExecOptions{
		Workers:  s.cfg.Workers,
		Steal:    s.cfg.Steal,
		Cache:    s.cache,
		Observer: obs.Tee(replay, r.broadcast),
	})
	if err != nil {
		s.finish(r, err)
		return
	}
	// Render every artifact once, at completion: serving is then a pure
	// byte copy, and two GETs can never observe different bytes.
	var jsonl, events, csv bytes.Buffer
	if err := out.WriteJSONL(&jsonl); err != nil {
		s.finish(r, err)
		return
	}
	if err := replay.WriteCanonical(&events); err != nil {
		s.finish(r, err)
		return
	}
	table := out.Table()
	if err := table.CSV(&csv); err != nil {
		s.finish(r, err)
		return
	}
	r.mu.Lock()
	r.state = StateDone
	r.hits, r.misses = out.CacheHits, out.CacheMisses
	// Clones, not the buffers' own arrays: a buffer grown by doubling can
	// hold up to twice its content, and the registry would keep that slack
	// alive as long as it keeps the run.
	r.jsonl, r.events = bytes.Clone(jsonl.Bytes()), bytes.Clone(events.Bytes())
	r.table, r.csv = []byte(table.String()), bytes.Clone(csv.Bytes())
	r.mu.Unlock()
	r.broadcast.Close()
	close(r.done)
}

// finish moves a run to a terminal state (StateFailed unless err is
// nil) and releases its subscribers and waiters.
func (s *Service) finish(r *Run, err error) {
	r.mu.Lock()
	r.plan = nil // a run that never reached execute still holds it
	if err != nil {
		r.state = StateFailed
		r.err = err
	} else {
		r.state = StateDone
	}
	r.mu.Unlock()
	r.broadcast.Close()
	close(r.done)
}

// Shutdown drains the service: no new submissions, the in-flight run's
// workers finish (and persist) the cells they are computing, queued
// runs fail cleanly, the dispatcher exits. ctx bounds the wait. A
// drained run reports ErrDrained; re-submitting its spec to a new
// service over the same cache backend resumes from the persisted cells
// and produces byte-identical final output.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
