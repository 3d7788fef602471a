// Package service is the campaign daemon's engine room: a run registry
// and FIFO job queue over the campaign executor (campaign.Execute, the
// function sscampaign runs too), the index of the rendered entries
// finished runs are served from, and an HTTP API (submit a .campaign
// spec, stream per-trial progress as JSONL, fetch tables/CSV/canonical
// events when done).
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
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

// Run is one submitted campaign: its compiled plan while it waits and
// executes, its live progress broadcast, and the rendered key its
// artifacts are stored under. The registry keeps every run, so a finished
// run holds nothing that grows with the campaign: no plan, no source text
// (the store keeps one per source) and nothing rendered.
type Run struct {
	// ID is the registry handle ("run-0001", ...).
	ID string

	svc   *Service
	key   string // campaign.RenderedKey of the source
	name  string // campaign name
	cells int    // campaign cell count
	// plan is read by the dispatcher only, and dropped when the run
	// finishes.
	plan      *campaign.Plan
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

// Output opens a terminal artifact by name: "jsonl" (per-trial records),
// "events" (canonical event log), "table" (aligned text summary), "csv"
// (CSV summary), a section of the source's rendered entry (see Service).
// It errors until the run is done. A missing entry is written again
// first, by one run of the source that the first reader to miss it
// starts and every reader meanwhile waits for, under the service's
// context; the store keeps the entry until each has opened it. A reader
// stops waiting when its ctx ends or the service shuts down. The caller
// closes the artifact.
func (r *Run) Output(ctx context.Context, kind string) (*Artifact, error) {
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
	s, key, section := r.svc, r.key, outputSections[i]
	if a, _ := s.open(key, section); a != nil {
		return a, nil
	}
	w, lead := s.store.join(key)
	defer s.store.leave(key)
	if lead {
		s.rewrite(key, w)
	}
	select {
	case <-w.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, fmt.Errorf("run %s: %w", r.ID, ErrShuttingDown)
	}
	if w.err != nil {
		return nil, fmt.Errorf("run %s: %w", r.ID, w.err)
	}
	if a, _ := s.open(key, section); a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("run %s: the rendered entry changed under the service before it was read", r.ID)
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
	// backend — cross-run dedup without persistence).
	Cache campaign.Backend
	// Workers is each run's pool worker count (< 1: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submitted-but-not-started backlog (< 1: 16).
	QueueDepth int

	// tee overrides how a run's sinks are combined (nil: obs.Tee). Tests
	// use it to see which sinks a run attaches and to add their own.
	tee func(...obs.Observer) obs.Observer
	// compile overrides how a source becomes a plan (nil: campaign.Parse
	// then campaign.Compile). Tests use it to count them.
	compile func(src string, workers int) (*campaign.Plan, error)
}

// Service is the daemon core: a run registry, a FIFO job queue executing
// one run at a time (each run parallelizes internally on the engine
// pool, see campaign.Execute), and the index of the rendered entries the
// finished runs are served from. All methods are safe for concurrent use.
//
// The artifacts are a function of the source alone, so they are stored
// once per source, as the rendered entry sscampaign keeps too (a file
// beside the cell entries of a DirBackend), with the stream a run served
// wholly from the cache emits. A GET copies a section of the entry, and
// a run of a source with an entry is served its stream without parsing,
// compiling, reading a cell or encoding an event. The registry never
// evicts; the store evicts entries under artifactBudget.
type Service struct {
	cfg   Config
	cache campaign.Backend
	spill campaign.Backend // in memory, the entries the cache refused (see keep)
	queue chan *Run
	store *artifactStore
	wg    sync.WaitGroup // the dispatcher and every rewrite

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string
	nextID int
	closed bool
}

// New starts a service (its dispatcher goroutine runs until Shutdown).
func New(cfg Config) *Service {
	cache := cfg.Cache
	if cache == nil {
		cache = campaign.NewMemBackend()
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 16
	}
	if cfg.tee == nil {
		cfg.tee = obs.Tee
	}
	if cfg.compile == nil {
		cfg.compile = compileSource
	}
	s := &Service{
		cfg:   cfg,
		cache: cache,
		spill: campaign.NewMemBackend(),
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
// return instead (see SubmitStream). Bad specs are rejected here, at the
// POST, not discovered mid-queue; a refused submit registers nothing.
func (s *Service) Submit(src string) (*Run, error) {
	r, _, stream, err := s.SubmitStream(src, -1)
	if stream != nil {
		stream.Close()
	}
	return r, err
}

// SubmitStream is Submit with the run's progress attached (buf >= 0)
// before the run can start, so the submitter sees its very first event.
// A source with a rendered entry is neither parsed nor compiled nor
// queued: its run takes the entry's name and cell count, is done on
// return with every cell a hit, and comes with the entry's stream open
// and no subscription, for the caller to copy at its own pace (it can
// neither lag nor be cut) and close. Any other run comes with a
// subscription to its broadcast of buf events, which the caller owns;
// its source is parsed from the store's copy when there is one, so that
// a plan pins no second copy of the text.
func (s *Service) SubmitStream(src string, buf int) (*Run, *obs.Subscription, *Artifact, error) {
	r := s.newRun(campaign.RenderedKey([]byte(src), 0, 1))
	var sub *obs.Subscription
	stream, idx := s.open(r.key, campaign.SectionStream)
	if stream != nil {
		r.name, r.cells = idx.Name, idx.Cells
		s.finish(r, idx.Cells, 0, nil)
	} else {
		src = cmp.Or(s.store.source(r.key, ""), src)
		if err := s.prepare(r, src); err != nil {
			return nil, nil, nil, err
		}
		if buf >= 0 {
			sub = r.Subscribe(buf)
		}
	}
	s.store.source(r.key, src)
	if err := s.register(r, stream == nil); err != nil {
		if stream != nil {
			stream.Close()
		}
		return nil, nil, nil, err
	}
	return r, sub, stream, nil
}

// newRun is a queued run of the source stored under key.
func (s *Service) newRun(key string) *Run {
	return &Run{svc: s, key: key, broadcast: obs.NewBroadcast(), done: make(chan struct{}), state: StateQueued}
}

// compileSource is how a source becomes a plan: Parse, then Compile.
func compileSource(src string, workers int) (*campaign.Plan, error) {
	spec, err := campaign.Parse(src)
	if err != nil {
		return nil, err
	}
	return campaign.Compile(spec, workers)
}

// prepare compiles src into r's plan, name and cell count.
func (s *Service) prepare(r *Run, src string) error {
	plan, err := s.cfg.compile(src, s.cfg.Workers)
	if err != nil {
		return err
	}
	r.plan = plan
	// The name is a piece of a source text, which a finished run must not
	// pin.
	r.name, r.cells = strings.Clone(plan.Spec.Name), len(plan.Cells)
	return nil
}

// register names r and hands it to the dispatcher when queue is set,
// then adds it to the registry: a refusal leaves the registry as it was.
// A run that is not queued (a resident run, done already) takes no queue
// slot, so a full queue does not refuse it; shutting down does.
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

// CacheStats reports the shared backend's cell entry count and total
// bytes.
func (s *Service) CacheStats() (entries int, bytes int64, err error) {
	return s.cache.Stats()
}

// ArtifactStats reports how many rendered entries the store indexes and
// their total bytes.
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

// execute runs one campaign. When the source has no rendered entry the
// run also collects the canonical events, and keep writes the entry.
func (s *Service) execute(r *Run) {
	r.setState(StateRunning)
	sinks := []obs.Observer{r.broadcast}
	var replay *obs.ReplaySink
	if idx, _ := s.store.index(r.key); idx == nil {
		replay = obs.NewReplaySink()
		sinks = append(sinks, replay)
	}
	// Workers: the plan was compiled with s.cfg.Workers.
	out, err := campaign.Execute(s.ctx, r.plan, campaign.RunOptions{Cache: s.cache, Observer: s.cfg.tee(sinks...)})
	if err == nil && replay != nil {
		err = s.keep(r, out, replay)
	}
	if err != nil {
		s.finish(r, 0, 0, err)
		return
	}
	s.finish(r, out.CacheHits, out.CacheMisses, nil)
}

// keep writes the source's rendered entry, the stream included, and
// indexes it. An entry the cache refuses (a full or read-only directory)
// goes to the spill, in memory charged to the same budget, so the run is
// done and served all the same.
func (s *Service) keep(r *Run, out *campaign.Outcome, replay *obs.ReplaySink) (err error) {
	var entryOnly [campaign.NumSections]io.Writer
	for _, be := range []campaign.Backend{s.cache, s.spill} {
		idx, e := campaign.StoreRendered(be, r.key, r.name, r.cells, len(out.Results), entryOnly, out.Render(replay))
		if e == nil {
			s.store.put(r.key, idx, be)
			return nil
		}
		if err == nil {
			err = e
		}
	}
	return err
}

// finish moves a run to its terminal state, StateFailed with err or
// StateDone with its cache counts, and releases its subscribers and
// waiters.
func (s *Service) finish(r *Run, hits, misses int, err error) {
	r.mu.Lock()
	r.plan = nil // a finished run must not pin it
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

// open opens section of the rendered entry stored under key through the
// store's index: an entry not indexed is checked and indexed from the
// cache first, and an index whose stamp the entry no longer has is
// dropped, and the entry indexed again. It returns nil when there is no
// valid entry, whatever the reason: one to write again.
func (s *Service) open(key string, section int) (*Artifact, *campaign.RenderedIndex) {
	for range 2 {
		idx, be := s.store.index(key)
		if idx == nil {
			if idx, _ = campaign.IndexRendered(s.cache, key); idx == nil {
				return nil, nil
			}
			be = s.cache
			s.store.put(key, idx, be)
		}
		f, _ := be.OpenRendered(key)
		if f != nil && f.Stamp() == idx.Stamp {
			if part, err := f.Section(idx.Off[section], idx.Len[section]); err == nil {
				return &Artifact{part, idx.Len[section], f}, idx
			}
		}
		if f != nil {
			f.Close()
		}
		s.store.drop(key, idx)
	}
	return nil, nil
}

// rewrite runs the source stored under key once more for w's readers,
// through execute but unregistered and in a goroutine of its own. A
// stopped service refuses it.
func (s *Service) rewrite(key string, w *rewrite) {
	s.mu.Lock() // the lock Shutdown sets closed under: no Add after its Wait
	closed := s.closed
	if !closed {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if closed {
		s.store.end(key, w, ErrShuttingDown)
		return
	}
	go func() {
		defer s.wg.Done()
		r := s.newRun(key)
		err := s.prepare(r, s.store.source(key, ""))
		if err == nil {
			s.execute(r)
			_, err = r.State()
		}
		s.store.end(key, w, err)
	}()
}

// Shutdown drains the service: no new submissions, the in-flight run's
// workers finish (and persist) the cells they are computing, queued
// runs fail cleanly, the dispatcher exits; a GET that needs its source
// run again gets ErrShuttingDown, and such a run in flight drains like
// the dispatcher's. ctx bounds the wait. A drained run reports
// campaign.ErrDrained; re-submitting its spec to a new service over the
// same cache backend resumes from the persisted cells and produces
// byte-identical final output.
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
