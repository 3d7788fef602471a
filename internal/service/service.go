// Package service is the campaign daemon's engine room: a run registry
// and FIFO job queue over the campaign executor (campaign.Execute, the
// function sscampaign runs too), the artifact store finished runs are
// served from, and an HTTP API (submit a .campaign spec, stream
// per-trial progress as JSONL, fetch tables/CSV/canonical events when
// done).
//
// Determinism contract: a served run's merged JSONL, summary tables and
// canonical event log are byte-identical to a CLI run of the same
// campaign at the same seed — regardless of worker count, completion
// order, or cold/warm cache state. The contract holds because cells are
// the indivisible work unit: each cell's records are a pure function of
// (seed, cell key) and results merge by cell index, so scheduling can
// never reorder or perturb bytes. Live progress streams are best-effort
// diagnostics and carry no such guarantee.
package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
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

// Run is one submitted campaign: its compiled plan and source while it
// waits and executes, its live progress broadcast, and, once done, the
// key its artifacts are stored under. The registry keeps every run, so a
// finished run holds nothing that grows with the campaign: no plan
// (graphs, cells), no source text (the store shares one copy among the
// runs of a source) and nothing rendered.
type Run struct {
	// ID is the registry handle ("run-0001", ...).
	ID string

	svc   *Service
	key   artifactKey
	name  string // campaign name
	cells int    // campaign cell count
	// plan and src are read by the dispatcher only, and dropped when the
	// run finishes.
	plan      *campaign.Plan
	src       string
	broadcast *obs.Broadcast
	// done closes when the run reaches a terminal state.
	done chan struct{}

	mu     sync.Mutex
	state  State
	err    error
	hits   int
	misses int
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
// summary), "csv" (CSV summary). It errors until the run is done. The
// bytes come from the service's artifact store; when the run's set has
// been evicted they are rendered again first (see Service), which ctx
// and Shutdown cut short.
func (r *Run) Output(ctx context.Context, kind string) ([]byte, error) {
	i := slices.Index(outputKinds[:], kind)
	if i < 0 {
		return nil, fmt.Errorf("%w %q (want jsonl, events, table or csv)", errUnknownOutput, kind)
	}
	switch state, err := r.State(); state {
	case StateFailed:
		return nil, fmt.Errorf("run %s failed: %w", r.ID, err)
	case StateQueued, StateRunning:
		return nil, fmt.Errorf("run %s is %s: %w", r.ID, state, errNotDone)
	}
	set, err := r.svc.artifacts(ctx, r.key)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", r.ID, err)
	}
	return set[i], nil
}

// errUnknownOutput marks an Output kind the API does not serve, in any
// run state, and errNotDone a run whose outputs do not exist yet (the
// HTTP layer maps them to 404 and 409).
var (
	errUnknownOutput = errors.New("unknown output")
	errNotDone       = errors.New("outputs exist once done")
)

func (r *Run) setState(s State) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

// Config configures a Service.
type Config struct {
	// Cache is the shared result backend (nil: a fresh in-memory
	// backend — cross-run dedup without persistence). A given backend
	// is read through a hot tier (see hotTier), so a warm replay reads
	// each entry from it once.
	Cache campaign.Backend
	// Workers is each run's pool worker count (< 1: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submitted-but-not-started backlog (< 1: 16).
	QueueDepth int

	// tee overrides how a run's sinks are combined (nil: obs.Tee). Tests
	// use it to see which sinks a run attaches and to add their own.
	tee func(...obs.Observer) obs.Observer
}

// Service is the daemon core: a run registry, a FIFO job queue executing
// one run at a time (each run parallelizes internally on the engine
// pool, see campaign.Execute), and the artifact store the finished runs
// are served from. All methods are safe for concurrent use.
//
// The four artifacts are a function of the submitted source alone, so
// the store keys them by the source's SHA-256 and a finished run keeps
// the key. While a key is resident every run of that source is served
// the same bytes, rendered once; once a run of it has been served wholly
// from the cache, the next ones are served that run's stream from
// memory, without parsing, compiling, reading the cache or encoding an
// event. A set evicted under artifactBudget is rendered again by the
// first GET that wants it, by executing the source against the cache
// backend with one worker: a replay of stored records while the backend
// still has the cells, a recompute with the same bytes when it does not.
// The registry itself never evicts: what a finished run retains is its
// status.
type Service struct {
	cfg   Config
	cache campaign.Backend
	hot   *hotTier // nil over New's in-memory backend
	queue chan *Run
	store *artifactStore

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // the dispatcher and every render started by a GET

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string
	nextID int
	closed bool
}

// New starts a service (its dispatcher goroutine runs until Shutdown).
func New(cfg Config) *Service {
	var hot *hotTier
	cache := cfg.Cache
	if cache == nil {
		cache = campaign.NewMemBackend()
	} else {
		hot = newHotTier(cache, hotBudget)
		cache = hot
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 16
	}
	if cfg.tee == nil {
		cfg.tee = obs.Tee
	}
	s := &Service{
		cfg:   cfg,
		cache: cache,
		hot:   hot,
		queue: make(chan *Run, depth),
		store: newArtifactStore(artifactBudget),
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

// Submit parses and compiles a campaign source, enqueues it for
// execution and registers it; a source with a kept stream is done on
// return instead (see submit). Bad specs are rejected here, at the POST,
// not discovered mid-queue; a refused submit registers nothing.
func (s *Service) Submit(src string) (*Run, error) {
	r, _, _, err := s.submit(src, -1)
	return r, err
}

// SubmitStream is Submit with the run's progress attached before the
// run can start, so the submitter sees the run from its very first
// event — a Subscribe after Submit races with execution and misses the
// head of a small campaign. A run of a source with a kept stream is done
// when it is returned, with that stream's lines and no subscription: the
// caller writes them at its own pace, so the stream can neither lag nor
// be cut. The lines are the store's, shared by every such run, and must
// not be written to. Any other run returns a subscription to its
// broadcast of buf events (see Run.Subscribe), which the caller owns.
func (s *Service) SubmitStream(src string, buf int) (*Run, *obs.Subscription, []byte, error) {
	return s.submit(src, buf)
}

// submit builds a run and registers it. A source whose set is resident
// with a kept run is neither parsed nor compiled nor queued: the new run
// takes the kept name and cell count, is done at once with every cell a
// hit, and returns the kept stream for the caller to write. Any other
// source is parsed from the store's copy when the store has one, so that
// a plan pins no second copy of the text; its run is enqueued, after the
// subscription when buf >= 0 (the dispatcher only sees the run after the
// queue send, so the subscription cannot miss events).
func (s *Service) submit(src string, buf int) (*Run, *obs.Subscription, []byte, error) {
	r := &Run{
		svc:       s,
		key:       sha256.Sum256([]byte(src)),
		broadcast: obs.NewBroadcast(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	kept, stored := s.store.lookup(r.key)
	var sub *obs.Subscription
	var stream []byte
	if kept != nil {
		r.name, r.cells, stream = kept.name, kept.cells, kept.stream
		s.finish(r, kept.cells, 0, nil)
	} else {
		if stored != "" {
			src = stored
		}
		spec, err := campaign.Parse(src)
		if err != nil {
			return nil, nil, nil, err
		}
		plan, err := campaign.Compile(spec, s.cfg.Workers)
		if err != nil {
			return nil, nil, nil, err
		}
		r.plan, r.src = plan, src
		// The name is a piece of a source text, which a finished run must
		// not pin.
		r.name, r.cells = strings.Clone(spec.Name), len(plan.Cells)
		if buf >= 0 {
			sub = r.Subscribe(buf)
		}
	}
	if err := s.register(r, kept == nil); err != nil {
		return nil, nil, nil, err
	}
	return r, sub, stream, nil
}

// register names r and adds it to the registry, after handing it to the
// dispatcher when queue is set: a refusal leaves the registry as it was.
// A run that is not queued (a resident run, done already) takes no
// queue slot, so a full queue does not refuse it; shutting down does.
func (s *Service) register(r *Run, queue bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w, not accepting runs", ErrShuttingDown)
	}
	r.ID = fmt.Sprintf("run-%04d", s.nextID+1)
	if queue {
		select {
		case s.queue <- r:
		default:
			return fmt.Errorf("%w (%d runs waiting)", ErrQueueFull, cap(s.queue))
		}
	}
	s.nextID++
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	return nil
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

// hotStats reports the hot tier's resident entries, their bytes and the
// Loads it has served (zeros over New's in-memory backend).
func (s *Service) hotStats() (entries int, bytes, hits int64) {
	if s.hot == nil {
		return 0, 0, 0
	}
	return s.hot.stats()
}

// ArtifactStats reports how many artifact sets the store holds rendered
// and their total bytes.
func (s *Service) ArtifactStats() (entries int, bytes int64) {
	return s.store.stats()
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
			s.finish(r, 0, 0, errors.New("service: shut down before the run started"))
		default:
			return
		}
	}
}

// execute runs one campaign. When the store already holds the source's
// artifacts the run only feeds its live stream; otherwise it also
// collects the canonical events, renders once and stores the set. Either
// way the store keeps the stream of a run served wholly from the cache,
// encoded here, outside the store's lock.
func (s *Service) execute(r *Run) {
	r.setState(StateRunning)
	sinks := []obs.Observer{r.broadcast}
	var replay *obs.ReplaySink
	if s.store.get(r.key) == nil {
		replay = obs.NewReplaySink()
		sinks = append(sinks, replay)
	}
	// Workers: the plan was compiled with s.cfg.Workers.
	out, err := campaign.Execute(s.ctx, r.plan, campaign.RunOptions{Cache: s.cache, Observer: s.cfg.tee(sinks...)})
	var set *artifactSet
	if err == nil && replay != nil {
		set, err = render(out, replay)
	}
	if err != nil {
		s.finish(r, 0, 0, err)
		return
	}
	s.store.put(r.key, r.src, set, keep(out))
	s.finish(r, out.CacheHits, out.CacheMisses, nil)
}

// finish moves a run to its terminal state, StateFailed with err or
// StateDone with its cache counts, and releases its subscribers and
// waiters.
func (s *Service) finish(r *Run, hits, misses int, err error) {
	r.mu.Lock()
	r.plan, r.src = nil, "" // a finished run must not pin them
	if err != nil {
		r.state, r.err = StateFailed, err
	} else {
		r.state = StateDone
		r.hits, r.misses = hits, misses
	}
	r.mu.Unlock()
	r.broadcast.Close()
	close(r.done)
}

// artifacts returns the set stored under key, rendering it again when
// it has been evicted: at most one render per key is in flight, started
// by the first reader and awaited by all of them. A reader stops waiting
// when its ctx ends or the service shuts down; the render itself runs
// under the service's context, so one reader leaving does not fail the
// others.
func (s *Service) artifacts(ctx context.Context, key artifactKey) (*artifactSet, error) {
	set, fl, src, lead := s.store.begin(key)
	if set != nil {
		return set, nil
	}
	if lead {
		// Add under the lock Shutdown sets closed under, so it cannot
		// race with Shutdown's Wait.
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if closed {
			s.store.end(key, fl, nil, ErrShuttingDown)
		} else {
			go func() {
				defer s.wg.Done()
				set, err := s.rerender(src)
				s.store.end(key, fl, set, err)
			}()
		}
	}
	select {
	case <-fl.done:
		return fl.set, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, ErrShuttingDown
	}
}

// rerender executes src once more, for its artifacts alone: one worker,
// no live stream, the cells taken from the cache backend where it still
// has them.
func (s *Service) rerender(src string) (*artifactSet, error) {
	spec, err := campaign.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := campaign.Compile(spec, 1)
	if err != nil {
		return nil, err
	}
	replay := obs.NewReplaySink()
	out, err := campaign.Execute(s.ctx, plan, campaign.RunOptions{Cache: s.cache, Observer: replay})
	if err != nil {
		return nil, err
	}
	return render(out, replay)
}

// Shutdown drains the service: no new submissions, the in-flight run's
// workers finish (and persist) the cells they are computing, queued
// runs fail cleanly, the dispatcher exits; a GET that needs a render
// gets ErrShuttingDown, and a render in flight drains like a run. ctx
// bounds the wait. A drained run reports campaign.ErrDrained; re-submitting its
// spec to a new service over the same cache backend resumes from the
// persisted cells and produces byte-identical final output.
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
