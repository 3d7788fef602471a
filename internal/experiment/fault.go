package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/mis"
	"repro/internal/sched"
	"repro/internal/stats"
)

// This file holds the adversary-subsystem experiments E16-E18, the
// custom fault scenario behind ssbench -adversary, and what E15 and the
// churn experiments E19-E21 share with them: the snapshot warm-up, the
// campaign runner and the one fold every recovery table reads from.

// silentSnapshots obtains one legitimate silent configuration per
// family on g: the final configuration of the first hit in trial order
// among the standard adversarial trials of one proto cell per family,
// the families' warm-ups batched into a single pool launch and each
// stopping at its hit. The trial seeds derive from the cell keys alone,
// so every experiment that starts from a snapshot of (g, family) sees
// the same configuration.
func silentSnapshots(cfg Config, g *graph.Graph, families []string) ([]*model.Config, error) {
	specs := make([]engine.ProtoCell, len(families))
	for i, family := range families {
		specs[i] = engine.ProtoCell{Graph: g, Family: family}
	}
	return engine.SilentSnapshots(cfg.engineConfig(), specs)
}

// recovery is the one fold of the adversary and churn experiments
// (E15-E21 and the two custom scenarios): what a cell's trials add up
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

// foldRecovery runs the cells and returns one recovery fold per cell.
func foldRecovery(ecfg engine.Config, cells []engine.Cell) ([]recovery, error) {
	accs := make([]recovery, len(cells))
	err := engine.RunCells(ecfg, cells, func(cell, _ int, res *core.FaultResult) error {
		accs[cell].add(res)
		return nil
	})
	return accs, err
}

// CustomFault runs an ad-hoc adversary scenario outside the registry —
// the engine behind cmd/ssbench's -adversary flag: the named adversary
// with fault size k strikes each protocol family on a mid-suite graph
// under the given schedule. An at-start schedule injects into a
// legitimate silent snapshot (the E15/E16 regime); every other schedule
// starts from a random adversarial configuration and strikes mid-run.
func CustomFault(cfg Config, advName string, k int, schedule fault.Schedule) (*Result, error) {
	cfg = cfg.withDefaults()
	if k < 1 {
		return nil, fmt.Errorf("experiment: fault size k must be at least 1, got %d", k)
	}
	if _, err := fault.ByName(advName, k); err != nil {
		return nil, err
	}
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	g := graphs[len(graphs)/4]
	families := []string{engine.FamColoring, engine.FamMIS, engine.FamMatching}
	snapshots := make([]*model.Config, len(families))
	if schedule.Kind == fault.KindAtStart {
		if snapshots, err = silentSnapshots(cfg, g, families); err != nil {
			return nil, err
		}
	}
	ecfg := cfg.engineConfig()
	cells := make([]engine.Cell, len(families))
	for i, family := range families {
		sys, err := engine.Build(g, family, nil)
		if err != nil {
			return nil, err
		}
		cells[i], err = engine.NewCell(&ecfg, engine.Scenario{
			Key:   fmt.Sprintf("%s|%s|custom=%s|k=%d|%s", g.Name(), family, advName, k, schedule),
			Index: i, System: sys, Snapshot: snapshots[i],
			Adversary: advName, K: k, Schedule: schedule,
		})
		if err != nil {
			return nil, err
		}
	}
	accs, err := foldRecovery(ecfg, cells)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable(
		fmt.Sprintf("EX: adversary %s (k=%d) scheduled %s", advName, k, schedule),
		"protocol", "graph", "episodes", "recovered", "mean rounds", "max rounds", "max radius", "final silent")
	pass := true
	for i, family := range families {
		a := &accs[i]
		ok := a.legit == a.trials && a.recovered == a.injections
		pass = pass && ok
		table.AddRow(family, g.Name(), a.injections, outOf(a.recovered, a.injections),
			stats.Summarize(a.rounds).Mean, a.maxRounds, a.maxRadius, outOf(a.legit, a.trials))
	}
	return &Result{
		ID:       "EX",
		Title:    fmt.Sprintf("custom fault scenario: %s, k=%d, %s", advName, k, schedule),
		PaperRef: "Section 1 (recovery from arbitrary transient faults)",
		Claim:    "every injection episode recovers and the run ends in a legitimate silent configuration",
		Table:    table,
		Pass:     pass,
	}, nil
}

// midSuiteGraphLine reconstructs the campaign `graph` directive for the
// mid-suite topology at suite index len/div — the graphs the adversary
// experiments historically pinned. runCampaign verifies the
// reconstruction against the live suite, so a future suite change
// surfaces as a hard error here instead of a silent drift.
func midSuiteGraphLine(cfg Config, div int) string {
	if cfg.Quick {
		if div == 2 {
			return "star 8"
		}
		return "cycle 9"
	}
	if div == 2 {
		return "caterpillar 15"
	}
	return "grid 16"
}

// runCampaign runs a campaign source written by a rewired registry
// experiment through the engine, off the cache: it parses and compiles
// src, checks that the compiled cells run on the intended suite graph,
// and returns the plan (for the cells' coordinates) with one recovery
// fold per cell.
func runCampaign(cfg Config, src string, want *graph.Graph) (*campaign.Plan, []recovery, error) {
	spec, err := campaign.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: campaign spec: %w", err)
	}
	plan, err := campaign.Compile(spec, cfg.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	plan.SetObserver(cfg.Observer)
	if len(plan.Cells) > 0 {
		got := plan.Cells[0].Graph()
		if got.Name != want.Name() || got.N != want.N() {
			return nil, nil, fmt.Errorf("experiment: campaign graph %s (n=%d) does not match suite graph %s (n=%d): update midSuiteGraphLine",
				got.Name, got.N, want.Name(), want.N())
		}
	}
	cells, err := plan.EngineCells()
	if err != nil {
		return nil, nil, err
	}
	accs, err := foldRecovery(plan.EngineConfig(), cells)
	return plan, accs, err
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
// The grid is expressed as a campaign spec (internal/campaign): the
// DSL's key template pins the experiment's historical cell keys, so the
// trial seed streams — and the golden table — are byte-identical to the
// pre-campaign definition.
func E16AdversaryGrid(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	g := graphs[len(graphs)/4]
	n := g.N()
	ks := []int{1, max(1, n/4), max(1, n/2)}
	var advLines strings.Builder
	for _, advName := range fault.Names() {
		fmt.Fprintf(&advLines, "adversary %s k=%s inject=at-start\n", advName, ksCSV(ks))
	}
	plan, accs, err := runCampaign(cfg, fmt.Sprintf(`campaign e16-adversary-grid
seed %d
trials %d
max-steps %d
key {graph}|{protocol}|adv={adversary}|k={k}
graph %s
protocol coloring mis matching
%s`, cfg.Seed, cfg.Trials, cfg.MaxSteps, midSuiteGraphLine(cfg, 4), advLines.String()), g)
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
		Notes:    fmt.Sprintf("graph: %s; radius = max graph distance from the faulted set to any process that moved during recovery", g.Name()),
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
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	g := graphs[len(graphs)/2]
	sys, err := engine.Build(g, engine.FamMIS, nil)
	if err != nil {
		return nil, err
	}
	bound := mis.RoundBound(sys)
	k := max(1, g.N()/4)
	const episodes = 4

	names := sched.Names()
	_, accs, err := runCampaign(cfg, fmt.Sprintf(`campaign e17-repeated-injection
seed %d
trials %d
max-steps %d
key {graph}|{protocol}|daemon={daemon}|repeat={count}|k={k}
graph %s
protocol mis
daemon %s
adversary uniform k=%d inject=on-silence:%d
`, cfg.Seed, cfg.Trials, cfg.MaxSteps, midSuiteGraphLine(cfg, 2), strings.Join(names, " "), k, episodes), g)
	if err != nil {
		return nil, err
	}
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
		Notes:    fmt.Sprintf("graph: %s; adversary strikes at each silence point", g.Name()),
	}, nil
}

// E18ClusterContainment probes the fault-locality axis: BFS-ball faults
// of growing size around a random epicenter, injected into a legitimate
// silent configuration. The containment radius — how far beyond the
// faulted set corrections propagate — is the quantity of interest: it
// grows with the fault ball, and recovery succeeds at every size.
func E18ClusterContainment(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	g := graphs[len(graphs)/4]
	var ks []int
	for _, k := range []int{1, 2, 4, 8, 16} {
		if k <= g.N() {
			ks = append(ks, k)
		}
	}
	plan, accs, err := runCampaign(cfg, fmt.Sprintf(`campaign e18-cluster-containment
seed %d
trials %d
max-steps %d
key {graph}|{protocol}|cluster={k}
graph %s
protocol coloring mis matching
adversary cluster k=%s inject=at-start
`, cfg.Seed, cfg.Trials, cfg.MaxSteps, midSuiteGraphLine(cfg, 4), ksCSV(ks)), g)
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
		Notes:    fmt.Sprintf("graph: %s; ball r = fault ball radius around the epicenter, radius = spread of corrections from the faulted set", g.Name()),
	}, nil
}
