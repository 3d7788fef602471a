package experiment

import (
	"fmt"

	"repro/internal/stats"
)

// This file holds the dynamic-topology experiments E19-E21: convergence
// under edge rewiring, healing after partition-shaped cuts, and the
// composed crash/join-plus-state-fault regime, all expressed as campaign
// specs over the `churn` axis and run on mutable (CSR dynamic)
// topologies.

// E19ChurnedConvergence sweeps the topology-rewiring axis: a rewire
// churn adversary removes edges at each silence point (restoring its
// previous removals first, so the deficit stays bounded), and the
// protocol must re-converge to a configuration that is silent and
// legitimate on the *current* topology after every firing.
// Self-stabilization makes no distinction between state corruption and
// topology change — both leave the system in an arbitrary reachable
// configuration — so recovery is expected from each.
func E19ChurnedConvergence(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	line, desc, err := midSuite(cfg, 4)
	if err != nil {
		return nil, err
	}
	const firings = 3
	plan, _, accs, err := runCampaign(cfg, "e19-churned-convergence", fmt.Sprintf(`key {graph}|{protocol}|churn={churn}|ck={churn-k}|cinject={churn-inject}
%s
protocol coloring mis matching
churn rewire k=2 inject=on-silence:%d
`, line, firings))
	if err != nil {
		return nil, err
	}
	table := stats.NewTable(
		fmt.Sprintf("E19: convergence under edge rewiring, %d firings per trial", firings),
		"protocol", "churn events", "episodes", "recovered", "mean rounds", "max rounds", "final silent")
	pass := true
	for i := range plan.Cells {
		cs, a := &plan.Cells[i], &accs[i]
		ok := a.legit == a.trials &&
			a.recovered == a.episodes &&
			a.churnEvents == firings*a.trials
		pass = pass && ok
		table.AddRow(cs.Protocol, a.churnEvents, a.episodes, outOf(a.recovered, a.episodes),
			stats.Summarize(a.rounds).Mean, a.maxRounds, outOf(a.legit, a.trials))
	}
	return &Result{
		ID:       "E19",
		Title:    "convergence under edge rewiring (dynamic topology)",
		PaperRef: "Section 1 (arbitrary transient faults, here: topology changes)",
		Claim:    "every rewiring episode re-converges to a silent configuration legitimate on the current topology",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s; legitimacy is evaluated against the live (churned) topology", desc.Name),
	}, nil
}

// E20CutHealing probes partition-shaped topology faults: a cut churn
// adversary severs every edge on the boundary of a BFS ball around a
// random epicenter, the protocol re-silences on the severed topology,
// the cut is undone (the shape alternates), and the protocol must
// re-silence again on the healed base graph. With an even firing count
// every trial ends on the base topology, so the final configuration
// must be silent and legitimate there.
func E20CutHealing(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	line, desc, err := midSuite(cfg, 2)
	if err != nil {
		return nil, err
	}
	plan, _, accs, err := runCampaign(cfg, "e20-cut-healing", fmt.Sprintf(`key {graph}|{protocol}|churn={churn}|ck={churn-k}|cinject={churn-inject}
%s
protocol coloring mis matching
churn cut k=1,2 inject=on-silence:2
`, line))
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E20: cut-and-heal recovery (sever ball boundary, re-silence, restore)",
		"protocol", "ball", "episodes", "recovered", "mean affected", "max affected", "mean rounds", "final silent")
	pass := true
	for i := range plan.Cells {
		cs, a := &plan.Cells[i], &accs[i]
		ok := a.legit == a.trials && a.recovered == a.episodes
		pass = pass && ok
		table.AddRow(cs.Protocol, cs.ChurnK, a.episodes, outOf(a.recovered, a.episodes),
			stats.Summarize(a.affected).Mean, a.maxAffected,
			stats.Summarize(a.rounds).Mean, outOf(a.legit, a.trials))
	}
	return &Result{
		ID:       "E20",
		Title:    "cut-and-heal recovery on partitioned topologies",
		PaperRef: "Section 1 (recovery from arbitrary transient faults)",
		Claim:    "severing and healing a BFS-ball boundary is absorbed: both halves of each cut/heal pair re-silence, ending legitimate on the base graph",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s; affected = processes incident to severed/restored edges; even firing count restores the base topology before the final silence", desc.Name),
	}, nil
}

// E21CrashJoinComposed composes the two fault axes: a crash/join churn
// adversary removes processes from the topology while a uniform state
// adversary corrupts survivors at the same silence points. Each silence
// point opens one combined episode (state faults and topology changes
// land together, topology first), and every combined episode must
// recover — the strongest robustness regime the harness exercises.
func E21CrashJoinComposed(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	line, desc, err := midSuite(cfg, 4)
	if err != nil {
		return nil, err
	}
	plan, _, accs, err := runCampaign(cfg, "e21-crashjoin-composed", fmt.Sprintf(`key {graph}|{protocol}|adv={adversary}|k={k}|churn={churn}|ck={churn-k}
%s
protocol coloring mis
adversary uniform k=1 inject=on-silence:2
churn crashjoin k=1,3 inject=on-silence:2
`, line))
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E21: composed crash/join churn + state faults at each silence point",
		"protocol", "crash k", "injections", "churn events", "episodes", "recovered", "mean rounds", "max rounds", "final silent")
	pass := true
	for i := range plan.Cells {
		cs, a := &plan.Cells[i], &accs[i]
		ok := a.allRecovered == a.trials &&
			a.recovered == a.episodes &&
			a.injections == 2*a.trials && a.churnEvents == 2*a.trials
		pass = pass && ok
		table.AddRow(cs.Protocol, cs.ChurnK, a.injections, a.churnEvents, a.episodes, outOf(a.recovered, a.episodes),
			stats.Summarize(a.rounds).Mean, a.maxRounds, outOf(a.allRecovered, a.trials))
	}
	return &Result{
		ID:       "E21",
		Title:    "composed crash/join churn and state faults",
		PaperRef: "Section 1 (recovery from arbitrary transient faults)",
		Claim:    "combined topology-and-state fault episodes all recover; an even firing count returns every crashed process and the run ends silent and legitimate",
		Table:    table,
		Pass:     pass,
		Notes:    fmt.Sprintf("graph: %s; each silence point fires the crash/join churn first, then corrupts survivors", desc.Name),
	}, nil
}
