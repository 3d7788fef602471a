// Package campaign is the declarative scenario-sweep subsystem: a small
// line-oriented text DSL that declares sweep axes — graphs, protocols,
// daemons, adversaries × fault sizes × injection schedules — plus output
// selectors, a compiler that expands the axes into a deterministic list
// of trial-engine cells, and an executor that runs those cells on the
// internal/engine pool with a content-addressed on-disk result cache and
// shard/K-of-N execution.
//
// Scenarios are data, not code (the DEVS "experiment frame" separation):
// a .campaign file fully determines the cell list, every per-trial seed
// (rng.Derive(rng.DeriveString(seed, cellKey), trial) — exactly the
// registry's derivation) and therefore every result byte. Output is
// byte-identical across parallelism, across shard partitions (the
// concatenation of the shard outputs equals the unsharded output) and
// across cold-cache vs warm-cache runs.
//
// Compile once, build per run: a Plan holds the cell list and the engine
// configuration, and nothing writes it after Compile, so one plan can be
// shared and executed any number of times at once. What an execution
// builds — graphs, at-start snapshots, protocol systems and trial
// closures bound to its observer — is an Instance, which Execute makes
// for the cells that missed the cache and drops when it returns.
package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
)

// GraphSpec is one `graph` axis line: a named family swept over a size
// range with optional family parameters, or the registry suite.
type GraphSpec struct {
	// Family is a graph.NamedGenerators name (path, cycle, grid, torus,
	// gnp, regular, rgg, ...) or suiteFamily.
	Family string
	// Lo..Hi is the inclusive size range, advanced by Step. A single size
	// is Lo == Hi with Step == 0. The suite has no sizes.
	Lo, Hi, Step int
	// D overrides the degree of the `regular` family (0: family default).
	D int
	// P overrides the edge probability of `gnp` / the radius of `rgg`
	// (0: family default).
	P float64
	// W fixes the width of a grid or torus: size n builds the W × n/W
	// lattice (0: the squarest one the family rounds n to).
	W int
	// Seed, when Seeded, is the draw seed of a random family's graphs,
	// in place of the one derived from the campaign seed and the line.
	Seed   uint64
	Seeded bool
	// Quick selects the suite's four-graph variant (`graph suite quick`).
	Quick bool
}

// suiteFamily names the `graph suite` line: graph.DescribeSuite at the
// campaign seed, every member one topology of the axis.
const suiteFamily = "suite"

// randomFamilies are the graph families that draw their structure from
// a seed, the ones `seed=` applies to.
var randomFamilies = []string{"gnp", "regular", "rgg", "tree"}

// sizes expands the range into the concrete sweep sizes.
func (g GraphSpec) sizes() []int {
	if g.Lo == g.Hi {
		return []int{g.Lo}
	}
	step := g.Step
	if step <= 0 {
		step = 1
	}
	var out []int
	for n := g.Lo; n <= g.Hi; n += step {
		out = append(out, n)
	}
	return out
}

// line renders the canonical directive body (without the `graph `
// keyword) for the whole range.
func (g GraphSpec) line() string {
	if g.Family == suiteFamily {
		if g.Quick {
			return suiteFamily + " quick"
		}
		return suiteFamily
	}
	var sb strings.Builder
	sb.WriteString(g.Family)
	sb.WriteByte(' ')
	if g.Lo == g.Hi {
		sb.WriteString(strconv.Itoa(g.Lo))
	} else {
		fmt.Fprintf(&sb, "%d..%d", g.Lo, g.Hi)
		if g.Step > 1 {
			fmt.Fprintf(&sb, "/%d", g.Step)
		}
	}
	if g.D > 0 {
		fmt.Fprintf(&sb, " d=%d", g.D)
	}
	if g.P > 0 {
		sb.WriteString(" p=" + strconv.FormatFloat(g.P, 'g', -1, 64))
	}
	if g.W > 0 {
		fmt.Fprintf(&sb, " w=%d", g.W)
	}
	if g.Seeded {
		fmt.Fprintf(&sb, " seed=%d", g.Seed)
	}
	return sb.String()
}

// lineFor renders the canonical single-size descriptor of one swept
// size: the stable identity a cell's graph is derived and cached under.
func (g GraphSpec) lineFor(n int) string {
	one := g
	one.Lo, one.Hi, one.Step = n, n, 0
	return one.line()
}

// AxisSpec is one `adversary` or `churn` axis line: a named disturbance
// swept over sizes under one schedule.
type AxisSpec struct {
	// Name is a fault.Names adversary (uniform, comm, crash, cluster) on
	// an adversary line, a fault.ChurnNames shape (rewire, cut,
	// crashjoin) on a churn line.
	Name string
	// Ks are the sizes: processes corrupted per injection, or edges
	// rewired / ball radius / processes crashed per churn firing.
	Ks []int
	// Schedule decides when the disturbance strikes. An at-start
	// adversary injects into a legitimate silent snapshot of the cell's
	// protocol (the E15/E16 regime); at-start churn mutates the topology
	// right after the (random) initial configuration is installed. Every
	// other schedule starts from a random adversarial configuration and
	// strikes mid-run.
	Schedule fault.Schedule
}

func (a AxisSpec) line() string {
	ks := make([]string, len(a.Ks))
	for i, k := range a.Ks {
		ks[i] = strconv.Itoa(k)
	}
	return fmt.Sprintf("%s k=%s inject=%s", a.Name, strings.Join(ks, ","), a.Schedule)
}

// Spec is a parsed campaign: the full declarative description of a
// scenario sweep. Parse resolves every default, so a Spec (and its
// String rendering) is always complete; String(Parse(x)) is a fixed
// point of Parse∘String.
type Spec struct {
	// Name identifies the campaign in output. It is deliberately
	// excluded from cache fingerprints: a cell's records depend only on
	// its resolved coordinates and the engine configuration, so renamed
	// or grown campaigns sharing a cache directory reuse each other's
	// cells.
	Name string
	// Seed is the master seed every cell/trial seed derives from
	// (default 2009, the registry's canonical seed).
	Seed uint64
	// Trials is the number of adversarial initial configurations per
	// cell (default 5).
	Trials int
	// MaxSteps is the per-run step budget (default 1_000_000).
	MaxSteps int
	// Stop, when enabled, replaces the fixed Trials count with
	// sequential stopping: each cell runs trials until the 95% CI on its
	// mean rounds-to-silence reaches Stop.HalfWidth (bounded by
	// Stop.Min..Stop.Max trials). The realized per-cell trial count is a
	// deterministic function of (seed, cell) and lands in the cache.
	Stop engine.StopRule
	// SuffixRounds keeps each run going after silence to measure the
	// stabilized phase (default 0; plain campaigns only). With
	// SuffixPerProcess (`suffix-rounds Kn`) it counts rounds per process:
	// a cell on n processes runs SuffixRounds × n of them.
	SuffixRounds     int
	SuffixPerProcess bool
	// KeyTemplate overrides the canonical cell-key format (see
	// expandKey). Pinning a template keeps a campaign's seed streams
	// byte-compatible with the cell keys an experiment used before.
	KeyTemplate string
	// Graphs, Protocols, Daemons, Adversaries and Churns are the sweep
	// axes, expanded in declaration order as graph × protocol × daemon ×
	// adversary-line × k × churn-line × churn-k. No Adversaries and no
	// Churns means a plain convergence campaign; either axis alone makes
	// the campaign faulted (injected trials), and together they compose:
	// every (adversary, k) point runs against every (churn, k) point.
	Graphs      []GraphSpec
	Protocols   []string
	Daemons     []string
	Adversaries []AxisSpec
	Churns      []AxisSpec
	// Metrics selects the per-trial outputs, in emission order.
	Metrics []string
}

// suffixFor resolves the post-silence suffix of a cell on n processes.
func (s *Spec) suffixFor(n int) int {
	if s.SuffixPerProcess {
		return s.SuffixRounds * n
	}
	return s.SuffixRounds
}

// String renders the canonical campaign source accepted by Parse:
// directives in fixed order with every default resolved.
func (s *Spec) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign %s\n", s.Name)
	fmt.Fprintf(&sb, "seed %d\n", s.Seed)
	fmt.Fprintf(&sb, "trials %d\n", s.Trials)
	fmt.Fprintf(&sb, "max-steps %d\n", s.MaxSteps)
	if s.Stop.Enabled() {
		fmt.Fprintf(&sb, "stop %s\n", s.Stop)
	}
	if s.SuffixPerProcess {
		fmt.Fprintf(&sb, "suffix-rounds %dn\n", s.SuffixRounds)
	} else if s.SuffixRounds > 0 {
		fmt.Fprintf(&sb, "suffix-rounds %d\n", s.SuffixRounds)
	}
	if s.KeyTemplate != "" {
		fmt.Fprintf(&sb, "key %s\n", s.KeyTemplate)
	}
	for _, g := range s.Graphs {
		fmt.Fprintf(&sb, "graph %s\n", g.line())
	}
	fmt.Fprintf(&sb, "protocol %s\n", strings.Join(s.Protocols, " "))
	fmt.Fprintf(&sb, "daemon %s\n", strings.Join(s.Daemons, " "))
	for _, a := range s.Adversaries {
		fmt.Fprintf(&sb, "adversary %s\n", a.line())
	}
	for _, c := range s.Churns {
		fmt.Fprintf(&sb, "churn %s\n", c.line())
	}
	fmt.Fprintf(&sb, "metrics %s\n", strings.Join(s.Metrics, " "))
	return sb.String()
}
