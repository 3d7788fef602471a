// Package experiment regenerates every quantitative artifact of the
// paper as the registry E1-E22 (`ssbench -list` prints the index, and
// each Result names the paper artifact and the claim it checks): each
// experiment produces a table together with a pass flag stating whether
// the measured data is consistent with the paper's claim. E1-E15 cover
// the paper's theorems, lemmas, proof constructions and example
// figures. E16-E18 extend the registry along the adversary axis
// (internal/fault): fault shape, fault timing and fault locality of the
// recovery the paper promises. E19-E21 extend it along the topology axis
// (the `churn` campaign directive): edge rewiring, partition-shaped cuts
// and crash/join churn on mutable graphs, alone and composed with state
// faults. E22 runs one trial at growing n up to a million processes.
//
// Every experiment but six is a campaign spec plus a claim: it declares
// its cells in the campaign DSL (internal/campaign) — a source string
// compileSpec parses and compiles, as a .campaign file would be — and
// keeps only the fold that reads their trials and the check of the
// paper's claim. The claims that stay in Go are E7-E9 (searched
// impossibility witnesses and the orientation layer), E12 (the
// goroutine-per-process runtime), E13 (transformer cells built with
// engine.NewCell: as a spec their cell keys, and with them their trials,
// would change) and E22 (one wall-clock trial per size up to a million
// processes).
//
// Trials run on a parallel sharded worker pool (internal/engine). The engine
// is deterministic: per-trial seeds are derived from (Config.Seed, cell
// key, trial index) alone, never from scheduling order, so for a fixed
// Seed every pool-driven experiment table is byte-identical across
// Parallelism values — Parallelism: 1 reproduces fully sequential
// execution. The two exceptions are wall-clock by design and are kept
// off the golden tables: E12, whose goroutine-per-process runtime varies
// run to run, and E22, whose table reports seconds and heap bytes.
package experiment

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config scales an experiment run.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Trials is the number of adversarial initial configurations per
	// cell (default 5).
	Trials int
	// MaxSteps is the per-run step budget (default 1_000_000).
	MaxSteps int
	// Quick shrinks the graph suite for benchmark iterations.
	Quick bool
	// Parallelism is the number of worker goroutines the trial pool uses
	// (default runtime.GOMAXPROCS(0)). Results are identical for every
	// value; see the package documentation.
	Parallelism int
	// Observer receives the structured run events of every experiment's
	// trial loops (nil: none; see internal/obs).
	Observer obs.Observer
}

// withDefaults fills unset fields with the engine's defaults.
func (c Config) withDefaults() Config {
	e := c.engineConfig().WithDefaults()
	c.Trials, c.MaxSteps, c.Parallelism = e.Trials, e.MaxSteps, e.Parallelism
	return c
}

// engineConfig projects the experiment configuration onto the trial
// engine's (Quick only affects the graph suite, not the engine).
func (c Config) engineConfig() engine.Config {
	return engine.Config{
		Seed:        c.Seed,
		Trials:      c.Trials,
		MaxSteps:    c.MaxSteps,
		Parallelism: c.Parallelism,
		Observer:    c.Observer,
	}
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier, e.g. "E3".
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the reproduced artifact, e.g. "Theorem 5 / Lemma 4".
	PaperRef string
	// Claim states the expectation being checked.
	Claim string
	// Table carries the measured rows.
	Table *stats.Table
	// Pass reports whether every measured row is consistent with the
	// claim.
	Pass bool
	// Notes carries substitutions or caveats.
	Notes string
}

// Runner executes one experiment.
type Runner func(Config) (*Result, error)

// Entry is one registry experiment: its id, a one-line description for
// listings, and the runner.
type Entry struct {
	ID   string
	Desc string
	Run  Runner
}

// Registry maps experiment ids to runners, in id order.
func Registry() []Entry {
	return []Entry{
		{"E1", "COLORING convergence and k-efficiency across the graph suite", E1ColoringConvergence},
		{"E2", "communication bits per step vs the full-read baseline", E2CommunicationBits},
		{"E3", "MIS convergence rounds against the Δ×#C bound", E3MISRounds},
		{"E4", "MIS post-silence ♦-(x,1)-stability of the read sets", E4MISStability},
		{"E5", "MATCHING convergence rounds against the (Δ+1)n+2 bound", E5MatchingRounds},
		{"E6", "MATCHING post-silence stability and suffix communication", E6MatchingStability},
		{"E7", "Theorem 1 impossibility: searched silent illegitimate witnesses of the frozen variants", E7TheoremOne},
		{"E8", "Theorem 2 impossibility: searched witnesses on the rooted DAG", E8TheoremTwo},
		{"E9", "DAG orientation layer on arbitrary connected graphs", E9DagOrientation},
		{"E10", "stabilized-phase communication overhead vs baselines", E10StabilizedOverhead},
		{"E11", "convergence robustness under all six daemons", E11SchedulerRobustness},
		{"E12", "goroutine-per-process concurrent runtime (wall-clock)", E12ConcurrentRuntime},
		{"E13", "local-checking transformer on the full-read BFS tree", E13Transformer},
		{"E14", "convergence scaling curves over growing graph sizes", E14ScalingCurves},
		{"E15", "uniform fault injection into silent configurations", E15FaultContainment},
		{"E16", "adversary-shape grid: recovery under every fault model", E16AdversaryGrid},
		{"E17", "repeated on-silence injection under every daemon", E17RepeatedInjection},
		{"E18", "containment radius vs fault-cluster size", E18ClusterContainment},
		{"E19", "convergence under edge rewiring (dynamic topology)", E19ChurnedConvergence},
		{"E20", "cut-and-heal recovery on partitioned topologies", E20CutHealing},
		{"E21", "composed crash/join churn and state faults", E21CrashJoinComposed},
		{"E22", "million-process scaling: wall-clock and memory to silence", E22MillionScale},
	}
}

// ByID returns the runner for one experiment id. Unknown ids are a hard
// error listing every valid id.
func ByID(id string) (Runner, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown id %q (valid ids: %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// suiteLine is the campaign `graph` line of the registry suite at the
// run's seed (graph.Suite).
func suiteLine(cfg Config) string {
	if cfg.Quick {
		return "graph suite quick"
	}
	return "graph suite"
}

// midSuite returns the suite graph at index len/div, the topology the
// single-graph experiments run on, and the campaign `graph` line that
// builds it (compileSpec checks the one against the other).
func midSuite(cfg Config, div int) (*graph.Graph, string, error) {
	graphs, err := graph.Suite(cfg.Seed, cfg.Quick)
	if err != nil {
		return nil, "", err
	}
	lines := map[int][2]string{ // div -> {quick, full}
		2: {"star 8", "caterpillar 15"},
		3: {"cycle 9", "torus 12 w=3"},
		4: {"cycle 9", "grid 16"},
	}[div]
	line := lines[1]
	if cfg.Quick {
		line = lines[0]
	}
	return graphs[len(graphs)/div], "graph " + line, nil
}

// compileSpec compiles the campaign an experiment declares — its name
// and its axes, under the run's seed, trials and step budget — and
// materializes every cell: the plan gives each cell index its
// coordinates, the cells run on engine.RunCells under
// cfg.engineConfig(), off the cache. When on is non-nil every cell must
// run on a graph of its name and size, so a suite change that a
// midSuite line no longer matches is a hard error, not a silent drift.
func compileSpec(cfg Config, name, axes string, on *graph.Graph) (*campaign.Plan, []engine.Cell, error) {
	spec, err := campaign.Parse(fmt.Sprintf("campaign %s\nseed %d\ntrials %d\nmax-steps %d\n%s",
		name, cfg.Seed, cfg.Trials, cfg.MaxSteps, axes))
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: campaign spec: %w", err)
	}
	plan, err := campaign.Compile(spec, cfg.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	if on != nil {
		for i := range plan.Cells {
			if got := plan.Cells[i].Graph(); got.Name != on.Name() || got.N != on.N() {
				return nil, nil, fmt.Errorf("experiment: campaign graph %s (n=%d) does not match suite graph %s (n=%d): update midSuite",
					got.Name, got.N, on.Name(), on.N())
			}
		}
	}
	plan.SetObserver(cfg.Observer)
	cells, err := plan.EngineCells()
	return plan, cells, err
}
