package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/protocols/mis"
	"repro/internal/sched"
	"repro/internal/stats"
)

// This file holds the adversary-subsystem experiments E16-E18 and what
// E15 and the churn experiments E19-E21 share with them: the campaign
// runner and the one fold every recovery table reads from.

// recovery is the one fold of the adversary and churn experiments
// (E15-E21): what a cell's trials add up
// to, from which each table reads the columns it prints. The series
// grow in fold order (trials in trial order, a trial's episodes in
// firing order), so a mean sums the same floats in the same order
// whichever table asks for it.
type recovery struct {
	trials int
	// legit counts the trials that ended silent and legitimate,
	// allRecovered those of them whose every episode recovered;
	// finalRounds and maxFinalRounds are the legit trials'
	// rounds-to-silence.
	legit, allRecovered int
	finalRounds         []float64
	maxFinalRounds      int
	// Sums over trials: injections and churn firings performed, episodes
	// opened and episodes recovered.
	injections, churnEvents int
	episodes, recovered     int
	// Per episode: recovery rounds, containment radius and processes
	// affected by churn, with their maxima and the largest fault ball.
	rounds, radii, affected                    []float64
	maxRounds, maxRadius, maxAffected, maxBall int
}

func (a *recovery) add(res *core.FaultResult) {
	a.trials++
	if res.Silent && res.LegitimateAtSilence {
		a.legit++
		if res.AllRecovered() {
			a.allRecovered++
		}
		a.finalRounds = append(a.finalRounds, float64(res.RoundsToSilence))
		a.maxFinalRounds = max(a.maxFinalRounds, res.RoundsToSilence)
	}
	a.injections += res.Injections
	a.churnEvents += res.ChurnEvents
	a.episodes += len(res.Episodes)
	a.recovered += res.Recovered
	for _, ep := range res.Episodes {
		a.rounds = append(a.rounds, float64(ep.RecoveryRounds))
		a.radii = append(a.radii, float64(ep.Radius))
		a.affected = append(a.affected, float64(ep.Churned))
		a.maxRounds = max(a.maxRounds, ep.RecoveryRounds)
		a.maxRadius = max(a.maxRadius, ep.Radius)
		a.maxAffected = max(a.maxAffected, ep.Churned)
		a.maxBall = max(a.maxBall, ep.BallRadius)
	}
}

// outOf renders "part/whole", the shape of every recovered and
// final-silent column.
func outOf(part, whole int) string { return fmt.Sprintf("%d/%d", part, whole) }

// runCampaign compiles and runs the campaign an experiment declares (see
// compileSpec) and returns the plan and the instance, for the cells'
// coordinates and systems, with one recovery fold per cell.
func runCampaign(cfg Config, name, axes string) (*campaign.Plan, *campaign.Instance, []recovery, error) {
	plan, in, err := compileSpec(cfg, name, axes)
	if err != nil {
		return nil, nil, nil, err
	}
	accs := make([]recovery, len(plan.Cells))
	err = in.RunCells(func(cell, _ int, res *core.FaultResult) error {
		accs[cell].add(res)
		return nil
	})
	return plan, in, accs, err
}

// ksCSV renders a fault-size list as the k= argument of an `adversary`
// directive.
func ksCSV(ks []int) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// E16AdversaryGrid sweeps the fault-shape axis: every adversary shape ×
// fault size × protocol family, injected into a legitimate silent
// configuration. Self-stabilization promises recovery from arbitrary
// transient faults — not just the uniform whole-state corruption of E15
// — so comm-register glitches, crash-reboots and clustered corruption
// must all be absorbed, and the containment radius reports how far each
// shape's corrections propagate.
//
// The key template pins the experiment's historical cell keys, so the
// trial seed streams — and the golden table — stay what they were before
// the grid was a campaign spec.
func E16AdversaryGrid(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	line, desc, err := midSuite(cfg, 4)
	if err != nil {
		return nil, err
	}
	n := desc.N
	ks := []int{1, max(1, n/4), max(1, n/2)}
	var advLines strings.Builder
	for _, advName := range fault.Names() {
		fmt.Fprintf(&advLines, "adversary %s k=%s inject=at-start\n", advName, ksCSV(ks))
	}
	plan, _, accs, err := runCampaign(cfg, "e16-adversary-grid", fmt.Sprintf(`key {graph}|{protocol}|adv={adversary}|k={k}
%s
protocol coloring mis matching
%s`, line, advLines.String()))
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E16: recovery per adversary shape (fault-model grid)",
		"protocol", "adversary", "faults", "recovered", "mean rounds", "max rounds", "max radius")
	pass := true
	for i := range plan.Cells {
		cs, a := &plan.Cells[i], &accs[i]
		ok := a.legit == cfg.Trials
		pass = pass && ok
		table.AddRow(cs.Protocol, cs.Adversary, cs.K, outOf(a.legit, cfg.Trials),
			stats.Summarize(a.finalRounds).Mean, a.maxFinalRounds, a.maxRadius)
	}
	return &Result{
		ID:       "E16",
		Title:    "adversary-shape grid: recovery under every fault model",
		PaperRef: "Section 1 (recovery from arbitrary transient faults)",
		Claim:    "uniform, comm-only, crash-reset and clustered faults of every size are all recovered",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s; radius = max graph distance from the faulted set to any process that moved during recovery", desc.Name),
	}, nil
}

// E17RepeatedInjection probes the fault-timing axis under every daemon:
// a uniform adversary strikes at each silence point, repeatedly, and the
// per-episode recovery cost must stay within the protocol's proved
// convergence bound every time — self-stabilization's guarantee is
// memoryless, so the i-th recovery is no harder than the first,
// regardless of which fair scheduler drives the system.
func E17RepeatedInjection(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	line, desc, err := midSuite(cfg, 2)
	if err != nil {
		return nil, err
	}
	k := max(1, desc.N/4)
	const episodes = 4

	names := sched.Names()
	_, in, accs, err := runCampaign(cfg, "e17-repeated-injection", fmt.Sprintf(`key {graph}|{protocol}|daemon={daemon}|repeat={count}|k={k}
%s
protocol mis
daemon %s
adversary uniform k=%d inject=on-silence:%d
`, line, strings.Join(names, " "), k, episodes))
	if err != nil {
		return nil, err
	}
	bound := mis.RoundBound(in.System(0))
	table := stats.NewTable(
		fmt.Sprintf("E17: repeated %d-fault injection on MIS, %d episodes per trial", k, episodes),
		"daemon", "episodes", "recovered", "mean rounds", "max rounds", "bound+1", "max radius", "ok")
	pass := true
	for i, name := range names {
		a := &accs[i]
		// A round in progress at the injection instant may complete
		// early, so the measured per-episode count can exceed the
		// from-scratch bound by at most one partial round.
		ok := a.allRecovered == a.trials &&
			a.recovered == a.injections &&
			a.maxRounds <= bound+1
		pass = pass && ok
		table.AddRow(name, a.injections, outOf(a.recovered, a.injections),
			stats.Summarize(a.rounds).Mean, a.maxRounds, bound+1, a.maxRadius, ok)
	}
	return &Result{
		ID:       "E17",
		Title:    "repeated-injection steady state under every daemon",
		PaperRef: "Section 1 + Theorem 5 (memoryless recovery; Δ×#C round bound)",
		Claim:    "every recovery episode under periodic faults completes within the proved convergence bound, under every fair daemon",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s; adversary strikes at each silence point", desc.Name),
	}, nil
}

// E18ClusterContainment probes the fault-locality axis: BFS-ball faults
// of growing size around a random epicenter, injected into a legitimate
// silent configuration. The containment radius — how far beyond the
// faulted set corrections propagate — is the quantity of interest: it
// grows with the fault ball, and recovery succeeds at every size.
func E18ClusterContainment(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	line, desc, err := midSuite(cfg, 4)
	if err != nil {
		return nil, err
	}
	var ks []int
	for _, k := range []int{1, 2, 4, 8, 16} {
		if k <= desc.N {
			ks = append(ks, k)
		}
	}
	plan, _, accs, err := runCampaign(cfg, "e18-cluster-containment", fmt.Sprintf(`key {graph}|{protocol}|cluster={k}
%s
protocol coloring mis matching
adversary cluster k=%s inject=at-start
`, line, ksCSV(ks)))
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E18: containment radius vs fault-cluster size",
		"protocol", "cluster", "ball r", "recovered", "mean radius", "max radius", "max rounds")
	pass := true
	for i := range plan.Cells {
		cs, a := &plan.Cells[i], &accs[i]
		ok := a.legit == cfg.Trials
		pass = pass && ok
		table.AddRow(cs.Protocol, cs.K, a.maxBall, outOf(a.legit, cfg.Trials),
			stats.Summarize(a.radii).Mean, a.maxRadius, a.maxFinalRounds)
	}
	return &Result{
		ID:       "E18",
		Title:    "containment radius vs fault-cluster size",
		PaperRef: "Section 1 (locality of forward recovery)",
		Claim:    "clustered faults of every ball size are recovered; the containment radius tracks the fault ball",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s; ball r = fault ball radius around the epicenter, radius = spread of corrections from the faulted set", desc.Name),
	}, nil
}
