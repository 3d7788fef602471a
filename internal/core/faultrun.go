package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// This file holds the one trial body, Runner.trial, and the execution side
// of the adversary subsystem (internal/fault) it carries: a trial runs
// under a fault plan whose adversary strikes according to a schedule (at
// start, at a fixed step, periodically, or at each silence point) and
// every recovery episode is measured (rounds to re-silence, containment
// radius). A plain trial is the plan that never strikes: the same body,
// no episode. Injections mutate the live configuration mid-run; cache
// soundness is restored by marking every corrupted process dirty via
// model.Simulator.MarkDirty, the exact dirty rule Step applies to moving
// processes, so the incremental enabled/silence caches never observe a
// stale verdict.
//
// Plans may also (or only) carry a churn adversary: topology mutations
// fired on their own schedule against a runner-owned dynamic copy of
// the system (model.System.MutableCopy, reset between trials). A churn
// firing opens a recovery episode exactly like a state injection, with
// the affected process set as the containment source; cache soundness
// is owned by model.Simulator.ApplyTopology.

// Episode reports one disturbance — a state injection, a topology churn
// firing, or both at the same instant — and the recovery that followed.
type Episode struct {
	// Step is the step index at which the disturbance happened (0 for an
	// at-start injection).
	Step int
	// Faulted is the number of corrupted processes (0 for a pure
	// topology episode).
	Faulted int
	// Churned is the number of processes affected by the episode's
	// topology churn (0 for a pure state-fault episode).
	Churned int
	// Recovered reports whether the system re-reached silence after this
	// injection and before the next one (or the end of the run).
	Recovered bool
	// RecoveryRounds is the number of rounds from the injection to the
	// episode's silence point; for an unrecovered episode it is the
	// rounds observed until the episode was cut off (by the next
	// injection or the step budget).
	RecoveryRounds int
	// Radius is the containment radius of the episode: the maximum graph
	// distance from the faulted set to any process that fired an action
	// during recovery (0 when corrections never left the faulted set).
	Radius int
	// BallRadius is the fault ball's own radius when the adversary
	// reports one (fault.Cluster does), -1 otherwise.
	BallRadius int
}

// FaultResult reports one trial under a fault plan: the overall run
// outcome (the embedded RunResult describes the final recovery, exactly
// as a plain Run would) plus per-episode recovery statistics, all zero
// after a trial under the empty plan.
type FaultResult struct {
	RunResult
	// Injections is the number of state injections performed.
	Injections int
	// ChurnEvents is the number of topology churn firings performed.
	ChurnEvents int
	// Recovered counts the episodes that ended in silence.
	Recovered int
	// Episodes holds per-disturbance statistics, in firing order. The
	// slice is reused across trials on the same result buffer.
	Episodes []Episode
}

// AllRecovered reports whether every disturbance was followed by a
// return to silence (and at least one disturbance happened). For plans
// without churn this is exactly "every injection recovered".
func (r *FaultResult) AllRecovered() bool {
	return len(r.Episodes) > 0 && r.Recovered == len(r.Episodes)
}

// MaxRecoveryRounds returns the largest per-episode recovery round count.
func (r *FaultResult) MaxRecoveryRounds() int {
	m := 0
	for i := range r.Episodes {
		if r.Episodes[i].RecoveryRounds > m {
			m = r.Episodes[i].RecoveryRounds
		}
	}
	return m
}

// MaxRadius returns the largest per-episode containment radius.
func (r *FaultResult) MaxRadius() int {
	m := 0
	for i := range r.Episodes {
		if r.Episodes[i].Radius > m {
			m = r.Episodes[i].Radius
		}
	}
	return m
}

// faultRun is the runner's reusable injected-trial state.
type faultRun struct {
	obs     faultObserver
	contain fault.Containment
	faulted []int
	churned []int
	all     []int // faulted ∪ churned, the episode's containment sources
}

// faultObserver forwards every engine event to the trace recorder
// (keeping Report byte-identical to an uninjected run's) and, while a
// recovery episode is open, folds each fired action into the episode's
// containment radius.
type faultObserver struct {
	rec     *trace.Recorder
	contain *fault.Containment
	active  bool
}

var _ model.Observer = (*faultObserver)(nil)

func (o *faultObserver) StepBegin(step, selections int) { o.rec.StepBegin(step, selections) }

func (o *faultObserver) Selected(step, p int, neighbors []int, bits, fired, times int) {
	o.rec.Selected(step, p, neighbors, bits, fired, times)
	if o.active && fired >= 0 {
		o.contain.Moved(p)
	}
}

func (o *faultObserver) CommWrite(step, p, v, old, new int) { o.rec.CommWrite(step, p, v, old, new) }

func (o *faultObserver) StepEnd(step, selections int, roundCompleted bool) {
	o.rec.StepEnd(step, selections, roundCompleted)
}

// ballRadiusReporter is implemented by adversaries that know the radius
// of the fault region they just corrupted (fault.Cluster).
type ballRadiusReporter interface{ LastBallRadius() int }

// Adversary returns the adversary for a trial, caching by key exactly
// like Scheduler caches by name: when the runner's cached adversary was
// built under the same key it is reused (RunFaulted rewinds it to the
// trial seed, equivalent to a fresh construction); otherwise mk builds
// and caches a new one. The key must uniquely determine mk's behavior —
// use name plus parameters, e.g. "uniform/4".
func (r *Runner) Adversary(key string, mk func() fault.Adversary) fault.Adversary {
	if r.adv != nil && key != "" && r.advKey == key {
		return r.adv
	}
	r.adv = mk()
	r.advKey = key
	return r.adv
}

// ChurnAdversary returns the churn adversary for a trial, caching by
// key exactly like Adversary. The key must uniquely determine mk's
// behavior — use name plus parameters, e.g. "churn:rewire/2".
func (r *Runner) ChurnAdversary(key string, mk func() fault.ChurnAdversary) fault.ChurnAdversary {
	if r.churn != nil && key != "" && r.churnKey == key {
		return r.churn
	}
	r.churn = mk()
	r.churnKey = key
	return r.churn
}

// dynamicSystem returns the runner-owned dynamic copy of sys with the
// base topology restored, rebuilding it only when the base system
// changes (the worker's cell-affine job order makes that rare).
func (r *Runner) dynamicSystem(sys *model.System) *model.System {
	if r.dynBase != sys || r.dynSys == nil {
		r.dynBase = sys
		r.dynSys = sys.MutableCopy()
	} else {
		r.dynSys.ResetDynamic()
	}
	return r.dynSys
}

// RunFaulted executes one trial from the runner's initial-configuration
// buffer (see InitialConfig) under a fault plan: plan.Adversary is
// rewound to opts.Seed and strikes at the instants plan.Schedule
// selects; after the final injection the run continues to silence (or
// MaxSteps), and the embedded RunResult describes that final recovery
// exactly as Run would. Per-injection recovery statistics land in
// res.Episodes.
//
// A plan scheduled at-start with a single injection is byte-equivalent
// to corrupting the initial buffer by hand and calling Run: the same
// draw stream, the same execution, the same report. Mid-run injections
// mutate the live configuration between steps; every corrupted process
// is marked dirty (Simulator.MarkDirty) so the incremental
// enabled/silence caches stay sound. When the system reaches silence
// while injections are still pending, the next injection fires at the
// silence point regardless of schedule kind; an episode still unrecovered
// when the next injection is due is closed as unrecovered.
//
// Like Run, res.Final is the run's own buffer, and the runner keeps
// res's previous Final as its next initial-configuration buffer.
//
// When plan.Churn is set the trial executes on the runner's dynamic
// copy of sys (reset to the base topology first): churn firings follow
// plan.ChurnSchedule with randomness derived from opts.Seed under the
// "churn" label, so adding churn to a plan never perturbs the state
// adversary's or the scheduler's draw streams. A step at which both
// schedules fire disturbs topology first, then state, and opens one
// combined episode.
//
// A plan with neither adversary is refused: a caller that means a plain
// trial says so with Run, and one that holds a plan which may be empty
// (the engine's cell constructor) with Trial.
func (r *Runner) RunFaulted(sys *model.System, opts RunOptions, plan fault.Plan, res *FaultResult) error {
	if plan.Adversary == nil && plan.Churn == nil {
		return fmt.Errorf("core: RunFaulted without an adversary or churn adversary")
	}
	return r.trial(sys, opts, plan, &res.RunResult, res)
}

// RunRandomFaulted is RunFaulted from a uniformly random initial
// configuration drawn from opts.Seed, exactly as RunRandom draws it.
func (r *Runner) RunRandomFaulted(sys *model.System, opts RunOptions, plan fault.Plan, res *FaultResult) error {
	r.randomInitial(sys, opts.Seed)
	return r.RunFaulted(sys, opts, plan, res)
}

// Trial executes one trial under a plan that may be empty, from a copy of
// start or, when start is nil, from the uniformly random configuration of
// opts.Seed. Under the zero plan it is Run or RunRandom with the fault
// side of res zeroed (no injection, no episode); under any other it is
// RunFaulted or RunRandomFaulted.
func (r *Runner) Trial(sys *model.System, start *model.Config, opts RunOptions, plan fault.Plan, res *FaultResult) error {
	if start != nil {
		r.InitialConfig(sys).CopyFrom(start)
	} else {
		r.randomInitial(sys, opts.Seed)
	}
	return r.trial(sys, opts, plan, &res.RunResult, res)
}

// trial is the one trial body, behind every exported way to run one:
// from the runner's initial-configuration buffer it runs to silence,
// firing plan's disturbances at the instants their schedules select, and
// fills res as RunFaulted documents. The zero plan never strikes: no
// episode opens, the recorder observes the simulator directly and no
// fault-side buffer is touched, which is all a plain trial is. eps
// receives the episode statistics; only the zero plan may come with a nil
// eps (Run has a RunResult to fill and nothing else).
func (r *Runner) trial(sys *model.System, opts RunOptions, plan fault.Plan, res *RunResult, eps *FaultResult) error {
	if opts.Scheduler == nil {
		return fmt.Errorf("core: RunOptions.Scheduler is required")
	}
	if opts.MaxSteps <= 0 {
		return fmt.Errorf("core: RunOptions.MaxSteps must be positive")
	}
	if r.sys != sys || r.cfg == nil {
		return fmt.Errorf("core: trial without an initial configuration for this system (call InitialConfig first)")
	}
	if r.rec == nil {
		r.rec = trace.NewRecorder(sys.N())
	} else {
		r.rec.Reset(sys.N())
	}
	if eps != nil {
		eps.Injections, eps.ChurnEvents, eps.Recovered, eps.Episodes = 0, 0, 0, eps.Episodes[:0]
	}
	hasAdv, hasChurn := plan.Adversary != nil, plan.Churn != nil
	adv := plan.Adversary
	totalFault := 0
	if hasAdv {
		adv.Reset(opts.Seed)
		totalFault = plan.Schedule.Injections()
	}
	runSys := sys
	totalChurn := 0
	if hasChurn {
		runSys = r.dynamicSystem(sys)
		plan.Churn.Reset(rng.DeriveString(opts.Seed, "churn"))
		totalChurn = plan.ChurnSchedule.Injections()
	}

	// Only a plan that can open an episode pays for the forwarding
	// observer: without one the recorder is the simulator's observer.
	fr := &r.fr
	fr.obs = faultObserver{rec: r.rec, contain: &fr.contain}
	var observer model.Observer = r.rec
	if hasAdv || hasChurn {
		observer = &fr.obs
	}
	fr.faulted, fr.churned = fr.faulted[:0], fr.churned[:0]

	atStartFault := hasAdv && plan.Schedule.Kind == fault.KindAtStart
	atStartChurn := hasChurn && plan.ChurnSchedule.Kind == fault.KindAtStart
	if atStartFault {
		// The start injection corrupts the initial buffer before the
		// simulator adopts it; Reset re-derives every cache, so no dirty
		// marking is needed. (Still on the base topology and domains —
		// byte-identical to the pre-churn at-start path.)
		fr.faulted = adv.Inject(sys, r.cfg, fr.faulted[:0])
	}
	if err := r.sim.Reset(runSys, r.cfg, opts.Scheduler, opts.Seed, observer); err != nil {
		return err
	}

	var roundsAtInjection int
	var ep Episode
	openEpisode := func() {
		fr.all = append(append(fr.all[:0], fr.faulted...), fr.churned...)
		fr.contain.Begin(runSys.Graph(), fr.all)
		ep = Episode{Step: r.sim.Steps(), Faulted: len(fr.faulted), Churned: len(fr.churned), BallRadius: -1}
		if len(fr.faulted) > 0 {
			if br, ok := adv.(ballRadiusReporter); ok {
				ep.BallRadius = br.LastBallRadius()
			}
		}
		roundsAtInjection = r.sim.Rounds()
		fr.obs.active = true
		if len(fr.faulted) > 0 {
			eps.Injections++
			opts.Events.Emit(obs.Event{
				Kind: obs.KindInjection, Step: ep.Step,
				Count: ep.Faulted, Radius: ep.BallRadius,
			})
		}
	}
	closeEpisode := func(recovered bool) {
		ep.Recovered = recovered
		ep.RecoveryRounds = r.sim.Rounds() - roundsAtInjection
		ep.Radius = fr.contain.Radius()
		if recovered {
			eps.Recovered++
		}
		eps.Episodes = append(eps.Episodes, ep)
		fr.obs.active = false
		opts.Events.Emit(obs.Event{
			Kind: obs.KindRecovery, Step: r.sim.Steps(), Round: ep.RecoveryRounds,
			Count: ep.Faulted + ep.Churned, Recovered: recovered, Radius: ep.Radius,
		})
	}
	fireChurn := func() {
		fr.churned = plan.Churn.Churn(&r.sim, fr.churned[:0])
		eps.ChurnEvents++
		opts.Events.Emit(obs.Event{
			Kind: obs.KindTopology, Step: r.sim.Steps(),
			Count: len(fr.churned), Radius: -1,
		})
	}
	// disturb fires the due sources (topology first, then state) and
	// opens their combined episode.
	disturb := func(churnNow, faultNow bool) {
		if churnNow {
			fireChurn()
		} else {
			fr.churned = fr.churned[:0]
		}
		if faultNow {
			fr.faulted = adv.Inject(runSys, r.sim.Config(), fr.faulted[:0])
			for _, p := range fr.faulted {
				r.sim.MarkDirty(p)
			}
		} else {
			fr.faulted = fr.faulted[:0]
		}
		openEpisode()
	}
	if atStartChurn {
		fireChurn()
	}
	if atStartFault || atStartChurn {
		if !atStartFault {
			fr.faulted = fr.faulted[:0]
		}
		openEpisode()
	}

	finalSilent := false
	for {
		faultPending := hasAdv && eps.Injections < totalFault
		churnPending := hasChurn && eps.ChurnEvents < totalChurn
		limit := opts.MaxSteps
		faultDue, churnDue := -1, -1
		if faultPending {
			if faultDue = plan.Schedule.NextStep(r.sim.Steps()); faultDue >= 0 && faultDue < limit {
				limit = faultDue
			}
		}
		if churnPending {
			if churnDue = plan.ChurnSchedule.NextStep(r.sim.Steps()); churnDue >= 0 && churnDue < limit {
				limit = churnDue
			}
		}
		silent, err := r.sim.RunUntilSilent(limit, 1)
		if err != nil {
			return err
		}
		if silent {
			opts.Events.Emit(obs.Event{Kind: obs.KindSilence, Step: r.sim.Steps(), Round: r.sim.Rounds()})
			if fr.obs.active {
				closeEpisode(true)
			}
			if faultPending || churnPending {
				// Pending disturbances fire at the silence point
				// regardless of schedule kind (the adversary does not
				// wait for a finished computation).
				disturb(churnPending, faultPending)
				continue
			}
			finalSilent = true
			break
		}
		if r.sim.Steps() >= opts.MaxSteps {
			if fr.obs.active {
				closeEpisode(false)
			}
			break
		}
		// Paused at a scheduled mid-run disturbance instant.
		if fr.obs.active {
			closeEpisode(false)
		}
		disturb(churnPending && churnDue == r.sim.Steps(), faultPending && faultDue == r.sim.Steps())
	}

	res.Silent = finalSilent
	res.StepsToSilence = r.sim.Steps()
	res.RoundsToSilence = r.sim.Rounds()
	res.LegitimateAtSilence = false
	if finalSilent {
		legit := opts.Legitimate
		if legit == nil {
			legit = model.Legitimate
		}
		res.LegitimateAtSilence = legit(runSys, r.sim.Config())
	}
	if finalSilent && opts.SuffixRounds > 0 {
		r.rec.MarkSuffix()
		r.sim.RunRounds(opts.SuffixRounds)
	}
	r.rec.ReportInto(&res.Report)
	r.handOver(res)
	return nil
}

// handOver gives the live configuration to res as its Final, without a
// copy, and takes res's previous Final as the next initial-configuration
// buffer when it has the system's shape (InitialConfig allocates one
// otherwise). A caller that reuses res therefore alternates two buffers,
// and a result it stops reusing keeps its Final.
func (r *Runner) handOver(res *RunResult) {
	prev := res.Final
	res.Final, r.cfg = r.cfg, nil
	if prev != nil && prev.Fits(r.sys) {
		r.cfg = prev
	}
}
