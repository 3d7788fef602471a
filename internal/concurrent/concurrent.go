// Package concurrent is a goroutine-per-process runtime for the paper's
// protocols: the "realistic implementation" setting the paper motivates.
// Each process is a goroutine over shared per-process registers; the Go
// scheduler plays the role of the distributed fair daemon. Experiment
// E12, the facade's RunConcurrent and examples/pairing run on it.
//
// Three synchronization regimes are offered:
//
//   - ModeGlobal: a global mutex serializes steps — exactly the
//     interleaving (central daemon) semantics.
//   - ModeNeighborhood: each step locks the process and read-locks its
//     neighbors in canonical order — composite atomicity with true
//     parallelism between non-adjacent processes (the classical local
//     mutual exclusion implementation of the shared-memory model).
//   - ModeRegisters: each step snapshots neighbor registers one at a
//     time (each register read is individually atomic, but the snapshot
//     is not) — strictly weaker than the paper's model; the experiments
//     show the three protocols still converge under it.
//
// The runtime stops when a monitor detects that the communication
// configuration is silent (using the model's decision procedure) and the
// protocol's legitimacy predicate (model.Legitimate, the conjunction of
// Spec.Legitimate over the processes) holds, or when the per-process step
// budget is exhausted.
package concurrent

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/rng"
)

// Mode selects the synchronization regime.
type Mode int

// Synchronization regimes.
const (
	ModeGlobal Mode = iota + 1
	ModeNeighborhood
	ModeRegisters
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeGlobal:
		return "global"
	case ModeNeighborhood:
		return "neighborhood"
	case ModeRegisters:
		return "registers"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a concurrent run.
type Options struct {
	// Mode is the synchronization regime (default ModeNeighborhood).
	Mode Mode
	// Seed drives protocol randomness.
	Seed uint64
	// MaxStepsPerProcess bounds each goroutine (default 100000).
	MaxStepsPerProcess int
	// PollInterval is the monitor's quiescence polling period (default
	// 500µs).
	PollInterval time.Duration
}

// Result reports a concurrent run.
type Result struct {
	// Silent reports whether the monitor observed a silent configuration.
	Silent bool
	// Legitimate is the protocol's predicate (model.Legitimate) on the
	// final configuration; false when it declares none.
	Legitimate bool
	// TotalSteps is the number of process steps executed.
	TotalSteps int64
	// Moves is the number of fired actions.
	Moves int64
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Final is the final configuration snapshot.
	Final *model.Config
}

// Run executes the system concurrently from cfg0 (not mutated).
func Run(sys *model.System, cfg0 *model.Config, opts Options) (*Result, error) {
	if err := cfg0.Validate(sys); err != nil {
		return nil, err
	}
	if opts.Mode == 0 {
		opts.Mode = ModeNeighborhood
	}
	if opts.MaxStepsPerProcess <= 0 {
		opts.MaxStepsPerProcess = 100000
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Microsecond
	}

	shared := cfg0.Clone()
	n := sys.N()
	locks := make([]sync.RWMutex, n)
	var global sync.Mutex
	var stop atomic.Bool
	var totalSteps, moves atomic.Int64

	stepOnce := func(p int, scratch *model.Config, r *rng.Rand) int {
		switch opts.Mode {
		case ModeGlobal:
			global.Lock()
			defer global.Unlock()
			return model.StepProcess(sys, shared, p, r)

		case ModeNeighborhood:
			// Lock self (write) and neighbors (read) in ascending id
			// order to avoid deadlock.
			ids := append([]int{p}, sys.Graph().Neighbors(p)...)
			sortInts(ids)
			for _, q := range ids {
				if q == p {
					locks[q].Lock()
				} else {
					locks[q].RLock()
				}
			}
			defer func() {
				for i := len(ids) - 1; i >= 0; i-- {
					if ids[i] == p {
						locks[ids[i]].Unlock()
					} else {
						locks[ids[i]].RUnlock()
					}
				}
			}()
			return model.StepProcess(sys, shared, p, r)

		case ModeRegisters:
			// Snapshot each neighbor register individually: reads are
			// atomic per register, the snapshot is not.
			for _, q := range sys.Graph().Neighbors(p) {
				locks[q].RLock()
				copyComm(sys, scratch, shared, q)
				locks[q].RUnlock()
			}
			locks[p].RLock()
			copyProcess(sys, scratch, shared, p)
			locks[p].RUnlock()
			fired := model.StepProcess(sys, scratch, p, r)
			if fired >= 0 {
				locks[p].Lock()
				copyProcess(sys, shared, scratch, p)
				locks[p].Unlock()
			}
			return fired

		default:
			panic(fmt.Sprintf("concurrent: unknown mode %v", opts.Mode))
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(rng.Derive(opts.Seed, uint64(p)))
			var scratch *model.Config
			if opts.Mode == ModeRegisters {
				scratch = cfg0.Clone()
			}
			for i := 0; i < opts.MaxStepsPerProcess; i++ {
				if stop.Load() {
					return
				}
				fired := stepOnce(p, scratch, r)
				totalSteps.Add(1)
				if fired >= 0 {
					moves.Add(1)
					// Hand the core on after every move: without an
					// explicit yield one goroutine can monopolize an OS
					// core between preemption points, and the effective
					// daemon becomes unboundedly unfair — outside the
					// fairness assumptions of the convergence theorems
					// (observable as proposal livelock in MATCHING).
					runtime.Gosched()
				} else {
					// Disabled: yield so enabled processes progress.
					time.Sleep(time.Duration(1+r.Intn(50)) * time.Microsecond)
				}
			}
		}(p)
	}

	takeSnapshot := func() *model.Config {
		if opts.Mode == ModeGlobal {
			global.Lock()
			defer global.Unlock()
			return shared.Clone()
		}
		return snapshot(sys, shared, locks)
	}

	// Monitor: poll a consistent snapshot for silence (+ legitimacy).
	monitorDone := make(chan struct{})
	var silentSeen atomic.Bool
	var monitorErr error // written before monitorDone closes, read after
	go func() {
		defer close(monitorDone)
		for !stop.Load() {
			time.Sleep(opts.PollInterval)
			snap := takeSnapshot()
			silent, err := model.CommSilent(sys, snap)
			if err != nil {
				monitorErr = err
				stop.Store(true)
				return
			}
			if silent && (sys.Spec().Legitimate == nil || model.Legitimate(sys, snap)) {
				silentSeen.Store(true)
				stop.Store(true)
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	<-monitorDone
	if monitorErr != nil {
		return nil, fmt.Errorf("concurrent: silence check: %w", monitorErr)
	}

	final := takeSnapshot()
	res := &Result{
		Silent:     silentSeen.Load(),
		TotalSteps: totalSteps.Load(),
		Moves:      moves.Load(),
		Elapsed:    time.Since(start),
		Final:      final,
	}
	if !res.Silent {
		// The budget may have run out after silence was in fact reached;
		// decide once more on the final snapshot.
		silent, err := model.CommSilent(sys, final)
		if err != nil {
			return nil, fmt.Errorf("concurrent: silence check: %w", err)
		}
		res.Silent = silent
	}
	res.Legitimate = model.Legitimate(sys, final)
	return res, nil
}

// snapshot copies the shared configuration under per-process read locks.
// Per-process rows are internally consistent; the snapshot as a whole is
// only used for monotone checks (silence is closed under the protocols'
// execution, so a stale interleaved snapshot can only delay detection).
func snapshot(sys *model.System, shared *model.Config, locks []sync.RWMutex) *model.Config {
	out := model.NewZeroConfig(sys)
	for p := 0; p < sys.N(); p++ {
		locks[p].RLock()
		copyProcess(sys, out, shared, p)
		locks[p].RUnlock()
	}
	return out
}

// copyComm copies process p's communication variables from src to dst,
// copyProcess its whole state; the caller holds p's lock.
func copyComm(sys *model.System, dst, src *model.Config, p int) {
	for v := range sys.CommWidth() {
		dst.SetComm(p, v, src.Comm(p, v))
	}
}

func copyProcess(sys *model.System, dst, src *model.Config, p int) {
	copyComm(sys, dst, src, p)
	for v := range sys.InternalWidth() {
		dst.SetInternal(p, v, src.Internal(p, v))
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}
