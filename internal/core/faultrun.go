package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// This file is the execution side of the adversary subsystem
// (internal/fault): RunFaulted drives one trial during which an
// adversary strikes according to a schedule — at start, at a fixed step,
// periodically, or at each silence point — and measures every recovery
// episode (rounds to re-silence, containment radius). Injections mutate
// the live configuration mid-run; cache soundness is restored by marking
// every corrupted process dirty via model.Simulator.MarkDirty, the exact
// dirty rule Step applies to moving processes, so the incremental
// enabled/silence caches never observe a stale verdict.
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

// FaultResult reports one injected trial: the overall run outcome (the
// embedded RunResult describes the final recovery, exactly as a plain
// Run would) plus per-episode recovery statistics.
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

func (o *faultObserver) StepBegin(step int, selected []int) { o.rec.StepBegin(step, selected) }

func (o *faultObserver) Selected(step, p int, neighbors []int, bits, fired, times int) {
	o.rec.Selected(step, p, neighbors, bits, fired, times)
	if o.active && fired >= 0 {
		o.contain.Moved(p)
	}
}

func (o *faultObserver) CommWrite(step, p, v, old, new int) { o.rec.CommWrite(step, p, v, old, new) }

func (o *faultObserver) StepEnd(step int, selected []int, roundCompleted bool) {
	o.rec.StepEnd(step, selected, roundCompleted)
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
// Like Run, res never aliases runner-owned memory and the
// initial-configuration buffer is consumed.
//
// When plan.Churn is set the trial executes on the runner's dynamic
// copy of sys (reset to the base topology first): churn firings follow
// plan.ChurnSchedule with randomness derived from opts.Seed under the
// "churn" label, so adding churn to a plan never perturbs the state
// adversary's or the scheduler's draw streams. A step at which both
// schedules fire disturbs topology first, then state, and opens one
// combined episode.
func (r *Runner) RunFaulted(sys *model.System, opts RunOptions, plan fault.Plan, res *FaultResult) error {
	hasAdv, hasChurn := plan.Adversary != nil, plan.Churn != nil
	if !hasAdv && !hasChurn {
		return fmt.Errorf("core: RunFaulted without an adversary or churn adversary")
	}
	if opts.Scheduler == nil {
		return fmt.Errorf("core: RunOptions.Scheduler is required")
	}
	if opts.MaxSteps <= 0 {
		return fmt.Errorf("core: RunOptions.MaxSteps must be positive")
	}
	if r.sys != sys || r.cfg == nil {
		return fmt.Errorf("core: Runner.RunFaulted without an initial configuration for this system (call InitialConfig first)")
	}
	if r.rec == nil {
		r.rec = trace.NewRecorder(sys.N())
	} else {
		r.rec.Reset(sys.N())
	}
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

	fr := &r.fr
	fr.obs.rec = r.rec
	fr.obs.contain = &fr.contain
	fr.obs.active = false
	res.Injections, res.ChurnEvents, res.Recovered = 0, 0, 0
	res.Episodes = res.Episodes[:0]
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
	if err := r.sim.Reset(runSys, r.cfg, opts.Scheduler, opts.Seed, &fr.obs); err != nil {
		return err
	}
	checkEvery := opts.CheckEvery
	if checkEvery < 1 {
		checkEvery = 1
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
			res.Injections++
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
			res.Recovered++
		}
		res.Episodes = append(res.Episodes, ep)
		fr.obs.active = false
		opts.Events.Emit(obs.Event{
			Kind: obs.KindRecovery, Step: r.sim.Steps(), Round: ep.RecoveryRounds,
			Count: ep.Faulted + ep.Churned, Recovered: recovered, Radius: ep.Radius,
		})
	}
	fireChurn := func() {
		fr.churned = plan.Churn.Churn(&r.sim, fr.churned[:0])
		res.ChurnEvents++
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
		faultPending := hasAdv && res.Injections < totalFault
		churnPending := hasChurn && res.ChurnEvents < totalChurn
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
		silent, err := r.sim.RunUntilSilent(limit, checkEvery)
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
	if finalSilent && opts.Legitimate != nil {
		res.LegitimateAtSilence = opts.Legitimate(runSys, r.sim.Config())
	}
	if finalSilent && opts.SuffixRounds > 0 {
		r.rec.MarkSuffix()
		r.sim.RunRounds(opts.SuffixRounds)
	}
	r.rec.ReportInto(&res.Report)
	if res.Final == nil {
		res.Final = model.NewZeroConfig(sys)
	}
	res.Final.CopyFrom(r.sim.Config())
	return nil
}

// RunRandomFaulted is RunFaulted from a uniformly random initial
// configuration drawn from opts.Seed, exactly as RunRandom draws it.
func (r *Runner) RunRandomFaulted(sys *model.System, opts RunOptions, plan fault.Plan, res *FaultResult) error {
	cfg := r.InitialConfig(sys)
	r.initSrc.Reseed(opts.Seed)
	model.RandomizeConfig(sys, cfg, r.initRand)
	return r.RunFaulted(sys, opts, plan, res)
}
