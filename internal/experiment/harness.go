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

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
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

// suite returns the benchmark graph suite. Quick mode keeps four small
// graphs; the full suite spans the topology families of the paper's
// setting (arbitrary connected networks) plus the paper's own figures.
func suite(cfg Config) ([]*graph.Graph, error) {
	r := rng.New(rng.DeriveString(cfg.Seed, "suite"))
	if cfg.Quick {
		return []*graph.Graph{
			graph.Path(8),
			graph.Cycle(9),
			graph.Star(8),
			graph.RandomConnectedGNP(12, 0.25, r),
		}, nil
	}
	reg, err := graph.RandomRegular(16, 4, r)
	if err != nil {
		return nil, err
	}
	return []*graph.Graph{
		graph.Path(12),
		graph.Cycle(13),
		graph.Complete(6),
		graph.Star(10),
		graph.Grid(4, 4),
		graph.Torus(3, 4),
		graph.Hypercube(3),
		graph.BalancedBinaryTree(3),
		graph.Caterpillar(5, 2),
		graph.RandomConnectedGNP(16, 0.2, r),
		reg,
		graph.RandomGeometric(16, 0.35, r),
		graph.Lollipop(5, 5),
		graph.TheoremOneSpider(3),
		graph.FigureNinePath(11),
		graph.FigureElevenNetwork(),
	}, nil
}

// runProtoCells builds the plain cells of specs, each system once, and
// folds every trial result (see engine.Fold for the ordering and
// concurrency contract): the workhorse behind the per-graph loops of
// E1-E14, whose memory is independent of Trials.
func runProtoCells(cfg Config, specs []engine.ProtoCell, fold engine.Fold) error {
	ecfg := cfg.engineConfig()
	cells, err := engine.ProtoCells(ecfg, specs)
	if err != nil {
		return err
	}
	return engine.RunCells(ecfg, cells, fold)
}
