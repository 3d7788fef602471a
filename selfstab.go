// Package selfstab is the public API of this reproduction of
// "Communication Efficiency in Self-stabilizing Silent Protocols"
// (Devismes, Masuzawa, Tixeuil — INRIA RR-6731 / ICDCS 2009). Its
// callers are five of the six programs under examples/; the commands
// and the experiment registry use internal/ directly.
//
// The package wires together the building blocks under internal/:
//
//   - build a network (Generate or any internal/graph constructor);
//   - instantiate one of the paper's protocols on it (New with "coloring",
//     "mis" or "matching", or a full-read baseline for comparison);
//   - run it from an adversarial configuration (Run, or RunConcurrent
//     for the goroutine-per-process runtime);
//   - read the convergence result and the paper's communication-
//     efficiency measures off the RunResult (k-efficiency, bits per
//     step, ♦-(x,1)-stability of the post-silence suffix).
//
// Quick start:
//
//	net, _ := selfstab.Generate("grid", 16, 1)
//	sys, _ := selfstab.New(net, "mis")
//	res, _ := selfstab.Run(sys, selfstab.Options{Seed: 1, SuffixRounds: 64})
//	fmt.Println(res.Silent, res.Report.KEfficiency, res.Report.StableProcesses(1))
//
// The paper's experiments (E1-E22) are not part of this API: `ssbench
// -list` prints their index and `ssbench -run` regenerates them.
package selfstab

import (
	"fmt"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Network is a connected communication graph together with the local
// identifiers ("colors") required by the MIS and MATCHING protocols.
type Network struct {
	// Graph is the underlying port-numbered graph.
	Graph *graph.Graph
	// Colors is a proper distance-1 coloring with values 1..Δ+1 (the
	// paper's communication constants C.p, drawn from a palette of Δ+1).
	Colors []int
}

// NewNetwork wraps a graph, computing greedy local identifiers.
func NewNetwork(g *graph.Graph) *Network {
	return &Network{Graph: g, Colors: graph.GreedyLocalColoring(g)}
}

// Generate builds a named topology (see graph.NamedGenerators for the
// list: path, cycle, grid, torus, tree, gnp, regular, rgg, spider, ...).
func Generate(name string, n int, seed uint64) (*Network, error) {
	g, err := graph.Named(name, n, seed)
	if err != nil {
		return nil, err
	}
	return NewNetwork(g), nil
}

// New instantiates a named protocol on the network. The names are
// engine.Families(): the paper's "coloring" (Figure 7), "mis" (Figure 8) and
// "matching" (Figure 10), each with a full-read "-baseline" and its
// cached-view "-xform" (the local-checking transformer of the paper's
// Section 6 open question), the classical full-read "bfstree" rooted at
// process 0 with its "bfstree-xform", and the deliberately ♦-1-stable
// "frozen", "mis-frozen" and "matching-frozen" of Theorems 1-2. The
// protocols that need local identifiers read the network's colors.
func New(net *Network, protocol string) (*model.System, error) {
	return engine.Build(net.Graph, protocol, net.Colors)
}

// Options configures Run.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Scheduler name (see internal/sched.Names; default "random-subset",
	// the paper's distributed fair scheduler).
	Scheduler string
	// MaxSteps bounds the run (default 1_000_000).
	MaxSteps int
	// SuffixRounds keeps executing after silence to measure the
	// stabilized phase (default 0).
	SuffixRounds int
	// Initial overrides the adversarial uniform-random initial
	// configuration.
	Initial *model.Config
}

// RunResult re-exports the core result type.
type RunResult = core.RunResult

// Run executes a system to silence under a fair scheduler, measuring
// the paper's communication-efficiency notions along the way.
func Run(sys *model.System, opts Options) (*RunResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Scheduler == "" {
		opts.Scheduler = "random-subset"
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1_000_000
	}
	sc, err := sched.ByName(opts.Scheduler, opts.Seed)
	if err != nil {
		return nil, err
	}
	initial := opts.Initial
	if initial == nil {
		initial = model.NewRandomConfig(sys, rng.New(opts.Seed))
	}
	return core.Run(sys, initial, core.RunOptions{
		Scheduler:    sc,
		Seed:         opts.Seed,
		MaxSteps:     opts.MaxSteps,
		SuffixRounds: opts.SuffixRounds,
	})
}

// ConcurrentOptions configures RunConcurrent.
type ConcurrentOptions struct {
	// Seed drives protocol randomness (default 1).
	Seed uint64
	// Mode is "global", "neighborhood" (default) or "registers".
	Mode string
	// MaxStepsPerProcess bounds each goroutine (default 200000).
	MaxStepsPerProcess int
}

// ConcurrentResult re-exports the concurrent result type.
type ConcurrentResult = concurrent.Result

// RunConcurrent executes the system with one goroutine per process.
func RunConcurrent(sys *model.System, opts ConcurrentOptions) (*ConcurrentResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var mode concurrent.Mode
	switch opts.Mode {
	case "", "neighborhood":
		mode = concurrent.ModeNeighborhood
	case "global":
		mode = concurrent.ModeGlobal
	case "registers":
		mode = concurrent.ModeRegisters
	default:
		return nil, fmt.Errorf("selfstab: unknown concurrency mode %q", opts.Mode)
	}
	if opts.MaxStepsPerProcess <= 0 {
		opts.MaxStepsPerProcess = 200000
	}
	initial := model.NewRandomConfig(sys, rng.New(opts.Seed))
	return concurrent.Run(sys, initial, concurrent.Options{
		Mode:               mode,
		Seed:               opts.Seed,
		MaxStepsPerProcess: opts.MaxStepsPerProcess,
	})
}

// Colors decodes the (1-based) color vector of a COLORING configuration.
func Colors(cfg *model.Config) []int { return coloring.Colors(cfg) }

// InMIS decodes the MIS membership vector of an MIS configuration.
func InMIS(cfg *model.Config) []bool { return mis.InMIS(cfg) }

// MatchedEdges decodes the matched edge set of a MATCHING configuration.
func MatchedEdges(sys *model.System, cfg *model.Config) [][2]int {
	return matching.MatchedEdges(sys, cfg)
}
