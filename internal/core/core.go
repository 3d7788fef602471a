// Package core implements the paper's primary contribution as runnable
// machinery: the communication-efficiency measures of Section 3 applied
// to executions of silent self-stabilizing protocols.
//
// A Run drives a system from an (adversarial) initial configuration under
// a chosen scheduler until the configuration becomes communication-silent
// (Definition 3), then optionally keeps executing for a suffix of rounds
// during which the per-process read sets R_p are re-recorded. The
// resulting RunResult exposes:
//
//   - whether and when silence was reached (steps and rounds, the paper's
//     convergence bounds are stated in rounds);
//   - the run's witnessed k-efficiency (Definition 4) and communication
//     complexity in bits (Definition 5);
//   - the suffix read sets, witnessing ♦-(x,k)-stability (Definition 9):
//     StableProcesses(1) is the number of processes that communicated
//     with at most one neighbor during the entire post-silence suffix.
//
// There is one trial body, Runner.trial (faultrun.go): a trial runs under
// a fault.Plan, and a plain trial is the plan that never strikes. Run,
// Runner.Run, RunRandom, RunFaulted, RunRandomFaulted and Trial differ
// only in how the initial configuration is filled and in which plans they
// accept; the paper draws no line between a fresh adversarial start and
// the aftermath of a fault, and neither does the loop.
//
// core owns the trial loop and its result types. It imports model, trace,
// fault, obs and rng, and must not import sched, engine, campaign or
// anything above them (schedulers arrive as model.Scheduler values).
package core

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RunOptions configures a Run.
type RunOptions struct {
	// Scheduler drives the computation (required).
	Scheduler model.Scheduler
	// Seed determines all randomness of the run (protocol coin flips).
	Seed uint64
	// MaxSteps bounds the search for silence (required, > 0).
	MaxSteps int
	// SuffixRounds, when > 0 and silence is reached, keeps the system
	// running for that many further rounds while recording the suffix
	// read sets used for stability measurements.
	SuffixRounds int
	// Legitimate, when non-nil, replaces the protocol's own predicate
	// (model.Legitimate, the conjunction of Spec.Legitimate) as the one
	// evaluated on the silent configuration.
	Legitimate func(*model.System, *model.Config) bool
	// Events receives the run's diagnostic events (silence detection,
	// fault injections, recovery episodes) tagged with the cell/trial
	// identity the scope carries. The zero Scope is a free no-op.
	Events obs.Scope
}

// RunResult reports one execution.
type RunResult struct {
	// Silent reports whether a communication-silent configuration was
	// reached within MaxSteps.
	Silent bool
	// StepsToSilence and RoundsToSilence are measured at the first
	// silence check that succeeded.
	StepsToSilence  int
	RoundsToSilence int
	// LegitimateAtSilence holds the predicate value at silence (false if
	// the protocol declares no predicate or silence was not reached).
	LegitimateAtSilence bool
	// Report carries the trace metrics. If SuffixRounds > 0 the suffix
	// fields cover exactly the post-silence window.
	Report trace.Report
	// Final is the configuration at the end of the run: the run's own
	// buffer, handed over by the runner rather than copied (see
	// Runner.Run for what a reused result does with it).
	Final *model.Config
}

// Run executes a system to silence and measures it. cfg0 is not mutated.
// It is the one-shot convenience form of Runner.Run on a throwaway
// Runner; loops over many trials should reuse one Runner instead.
func Run(sys *model.System, cfg0 *model.Config, opts RunOptions) (*RunResult, error) {
	rn := NewRunner()
	rn.InitialConfig(sys).CopyFrom(cfg0)
	res := &RunResult{}
	if err := rn.Run(sys, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Convergence summarizes many runs of the same protocol family.
type Convergence struct {
	// Runs is the number of executions.
	Runs int
	// Converged is how many reached silence within budget.
	Converged int
	// LegitimateAll reports whether every run reached a legitimate silent
	// configuration: a run that fails to converge falsifies it just like a
	// silent-but-illegitimate one. With zero runs it is vacuously true
	// (the empty conjunction), so callers must check Runs > 0 before
	// reading it as a positive verdict.
	LegitimateAll bool
	// MaxRounds and MaxSteps are maxima over converged runs.
	MaxRounds int
	MaxSteps  int
	// MaxKEfficiency is the largest witnessed k-efficiency.
	MaxKEfficiency int
}

// NewConvergence returns an empty summary ready for Add (LegitimateAll
// starts vacuously true).
func NewConvergence() Convergence { return Convergence{LegitimateAll: true} }

// Add folds one run into the summary: results folded one at a time need
// never be retained.
func (c *Convergence) Add(r *RunResult) {
	c.Runs++
	if !r.Silent {
		c.LegitimateAll = false
		return
	}
	c.Converged++
	if !r.LegitimateAtSilence {
		c.LegitimateAll = false
	}
	if r.RoundsToSilence > c.MaxRounds {
		c.MaxRounds = r.RoundsToSilence
	}
	if r.StepsToSilence > c.MaxSteps {
		c.MaxSteps = r.StepsToSilence
	}
	if r.Report.KEfficiency > c.MaxKEfficiency {
		c.MaxKEfficiency = r.Report.KEfficiency
	}
}
