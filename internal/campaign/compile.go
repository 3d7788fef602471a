package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// maxCells bounds a compiled campaign's cell count.
const maxCells = 65536

// Canonical cell-key templates, used when the campaign has no `key`
// directive. The plain template is exactly the proto-cell key of the
// experiment registry ("graph|family|scheduler|suffix"), so a plain
// campaign's seed streams coincide with the registry's for the same
// master seed.
const (
	defaultPlainKey = "{graph}|{protocol}|{daemon}|{suffix}"
	defaultFaultKey = "{graph}|{protocol}|{daemon}|adv={adversary}|k={k}|inject={schedule}"
	// defaultChurnSuffix extends the default key with the churn
	// coordinates. It is appended only when the campaign has a churn
	// axis, so churn-free campaigns keep their pre-churn cell keys (and
	// so their trial seed streams and cache entries).
	defaultChurnSuffix = "|churn={churn}|ck={churn-k}|cinject={churn-inject}"
)

// CellSpec is one compiled cell: the resolved coordinates of a point in
// the campaign's sweep space plus its seed/cache key.
type CellSpec struct {
	// Index is the cell's position in the campaign's deterministic cell
	// order (the shard partition and the output order).
	Index int
	// Key is the expanded cell key: the string the cell's trial seeds
	// derive from (rng.DeriveString(spec.Seed, Key)).
	Key string
	// GraphLine is the canonical single-size descriptor of the cell's
	// topology (e.g. "grid 16"), the stable identity used for cache
	// fingerprints.
	GraphLine string
	Protocol  string
	Daemon    string
	// Adversary/K/Schedule describe the fault axis ("" / 0 for cells
	// without state faults).
	Adversary string
	K         int
	Schedule  fault.Schedule
	// ChurnName/ChurnK/ChurnSchedule describe the topology-churn axis
	// ("" / 0 for cells on a static topology).
	ChurnName     string
	ChurnK        int
	ChurnSchedule fault.Schedule

	topo   *topology // shared by every cell of one (graph line, size) point
	suffix int       // post-silence suffix rounds, resolved for the topology's n
}

// topology is one (graph line, size) point of the graph axis: the
// descriptor its cells are keyed from. The graph itself belongs to the
// Instance that builds it.
type topology struct {
	desc graph.Desc
}

// Graph describes the cell's topology: the name and size cell keys
// embed. The topology itself exists only in an Instance.
func (cs *CellSpec) Graph() graph.Desc { return cs.topo.desc }

// atStart reports whether the cell injects into a silent snapshot.
func (cs *CellSpec) atStart() bool {
	return cs.Adversary != "" && cs.Schedule.Kind == fault.KindAtStart
}

// Plan is a compiled campaign: the deterministic cell list and the
// engine configuration its cells run under. Compile returns it complete,
// and only bench/'s forwards (instance.go) write it afterwards, so one
// plan can be shared and executed any number of times at once: what one
// execution builds lives in its Instance.
type Plan struct {
	Spec *Spec
	// Cells is the expanded sweep, in deterministic order: graph line ×
	// size × protocol × daemon × adversary line × k × churn line ×
	// churn k.
	Cells []CellSpec
	// Faulted reports whether the campaign has an adversary or churn
	// axis. It selects the default key template (as the parser's twin of
	// it selects the default metrics); every cell expands and runs the
	// same way whatever it says.
	Faulted bool

	cfg engine.Config // without an observer: each Instance binds its own

	benchObs obs.Observer
	bench    *Instance
}

// Compile expands a campaign into its deterministic cell list. Cell keys
// embed graph names and sizes, and both come from the families'
// descriptors (graph.Desc): no topology is built here but the small
// graphs of a `graph suite` line (graph.DescribeSuite). Topologies,
// protocol systems, run closures and the silent snapshots required by
// at-start adversary cells are built by Instantiate, for exactly the
// cells an execution will compute.
//
// Determinism: the cell order is a pure function of the Spec; cell keys
// (and so all trial seeds) never depend on parallelism, sharding or
// caching. Snapshot warm-ups use the canonical proto-cell keys
// ("graph|family|random-subset|0") and per-trial seeds derived from
// those keys alone, and a snapshot is the first hit in trial order (the
// first trial to end silent and legitimate, where the warm-up stops), so
// every campaign — and the experiment registry — sees the same snapshot
// for the same (seed, graph, family) no matter how (or whether) the
// warm-up batches are split.
func Compile(spec *Spec, parallelism int) (*Plan, error) {
	p := &Plan{
		Spec:    spec,
		Faulted: len(spec.Adversaries) > 0 || len(spec.Churns) > 0,
		cfg: engine.Config{
			Seed:        spec.Seed,
			Trials:      spec.Trials,
			MaxSteps:    spec.MaxSteps,
			Parallelism: parallelism,
			Stop:        spec.Stop,
		}.WithDefaults(),
	}

	// Reject oversized sweeps from the axis cardinalities alone: the
	// parser bounds each axis but not their product, and a hostile file
	// must not cost more than arithmetic (and the suite, whose at most
	// two lines build twenty small graphs).
	totalSizes := 0
	suites := map[bool][]graph.Desc{} // by GraphSpec.Quick
	for _, gs := range spec.Graphs {
		if gs.Family == suiteFamily {
			descs, err := graph.DescribeSuite(spec.Seed, gs.Quick)
			if err != nil {
				return nil, fmt.Errorf("campaign: graph %s: %w", gs.line(), err)
			}
			suites[gs.Quick] = descs
			totalSizes += len(descs)
			continue
		}
		totalSizes += len(gs.sizes())
	}
	advPoints, churnPoints := 0, 0
	for _, adv := range spec.Adversaries {
		advPoints += len(adv.Ks)
	}
	for _, ch := range spec.Churns {
		churnPoints += len(ch.Ks)
	}
	perGraph := max(1, advPoints) * max(1, churnPoints)
	if total := totalSizes * len(spec.Protocols) * len(spec.Daemons) * perGraph; total > maxCells {
		return nil, fmt.Errorf("campaign: %d cells exceed the %d-cell limit", total, maxCells)
	}

	// Graph axis: describe every (line, size) topology once.
	type graphPoint struct {
		topo *topology
		line string
	}
	var graphs []graphPoint
	seenNames := map[string]string{}
	addGraph := func(desc graph.Desc, line string) error {
		// Many families clamp or round sizes (grid/torus to squares,
		// hypercube to powers of two, spider ignores n entirely), and the
		// suite holds graphs other lines build too, so the graph axis can
		// collapse distinct points into one topology. Identically-named
		// graphs would share cell keys — and trial seeds — so reject them
		// here, where the colliding source lines can be named.
		if prev, dup := seenNames[desc.Name]; dup {
			return fmt.Errorf("campaign: `graph %s` and `graph %s` both build %q (the family clamps or rounds sizes, or the suite holds it): keep sizes/parameters that yield distinct graphs", prev, line, desc.Name)
		}
		seenNames[desc.Name] = line
		graphs = append(graphs, graphPoint{topo: &topology{desc: desc}, line: line})
		return nil
	}
	for _, gs := range spec.Graphs {
		if gs.Family == suiteFamily {
			for _, desc := range suites[gs.Quick] {
				if err := addGraph(desc, gs.line()+" "+desc.Name); err != nil {
					return nil, err
				}
			}
			continue
		}
		for _, n := range gs.sizes() {
			line := gs.lineFor(n)
			desc, err := describeGraph(gs, line, n, spec.Seed)
			if err != nil {
				return nil, fmt.Errorf("campaign: graph %s: %w", line, err)
			}
			if err := addGraph(desc, line); err != nil {
				return nil, err
			}
		}
	}

	// Cell expansion, in canonical axis order. The churn axis is the
	// innermost loop; an absent adversary or churn axis is its single
	// empty point, so a plain campaign is the sweep with both empty and
	// a churn-free one expands (order, keys, seed streams) exactly as
	// the pre-churn compiler did.
	template := spec.KeyTemplate
	for _, bg := range graphs {
		for _, proto := range spec.Protocols {
			for _, daemon := range spec.Daemons {
				appendPoint := func(advName string, k int, schedule fault.Schedule) {
					base := CellSpec{
						topo: bg.topo, GraphLine: bg.line,
						Protocol: proto, Daemon: daemon,
						Adversary: advName, K: k, Schedule: schedule,
						suffix: spec.suffixFor(bg.topo.desc.N),
					}
					if len(spec.Churns) == 0 {
						p.Cells = append(p.Cells, base)
						return
					}
					for _, ch := range spec.Churns {
						for _, ck := range ch.Ks {
							cell := base
							cell.ChurnName, cell.ChurnK, cell.ChurnSchedule = ch.Name, ck, ch.Schedule
							p.Cells = append(p.Cells, cell)
						}
					}
				}
				if len(spec.Adversaries) == 0 {
					appendPoint("", 0, fault.Schedule{})
					continue
				}
				for _, adv := range spec.Adversaries {
					for _, k := range adv.Ks {
						appendPoint(adv.Name, k, adv.Schedule)
					}
				}
			}
		}
	}
	if template == "" {
		template = defaultPlainKey
		if p.Faulted {
			template = defaultFaultKey
		}
		if len(spec.Churns) > 0 {
			template += defaultChurnSuffix
		}
	}
	seenKeys := make(map[string]int, len(p.Cells))
	for i := range p.Cells {
		cs := &p.Cells[i]
		cs.Index = i
		cs.Key = expandKey(template, spec, cs)
		if prev, dup := seenKeys[cs.Key]; dup {
			return nil, fmt.Errorf("campaign: cells %d and %d share key %q (they would share trial seeds; widen the key template or drop the colliding axis value)",
				prev, i, cs.Key)
		}
		seenKeys[cs.Key] = i
	}
	return p, nil
}

// expandKey substitutes the cell's coordinates into a key template, in
// one pass over the template. In cells without the corresponding axis
// the fault and churn placeholders render as their empty values:
// {adversary}/{schedule}/{churn}/{churn-inject} as "none",
// {k}/{count}/{churn-k} as 0. A brace group that is no placeholder
// (only a hand-built Spec can carry one) is kept verbatim.
func expandKey(template string, spec *Spec, cs *CellSpec) string {
	buf := make([]byte, 0, 2*len(template)+len(cs.topo.desc.Name))
	rest := template
	for {
		i := strings.IndexByte(rest, '{')
		if i < 0 {
			break
		}
		buf, rest = append(buf, rest[:i]...), rest[i:]
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			break
		}
		switch rest[:end+1] {
		case "{graph}":
			buf = append(buf, cs.topo.desc.Name...)
		case "{n}":
			buf = strconv.AppendInt(buf, int64(cs.topo.desc.N), 10)
		case "{protocol}":
			buf = append(buf, cs.Protocol...)
		case "{daemon}":
			buf = append(buf, cs.Daemon...)
		case "{adversary}":
			buf = append(buf, orNone(cs.Adversary, cs.Adversary)...)
		case "{k}":
			buf = strconv.AppendInt(buf, int64(cs.K), 10)
		case "{schedule}":
			buf = append(buf, orNone(cs.Adversary, cs.Schedule.String())...)
		case "{count}":
			count := 0
			if cs.Adversary != "" {
				count = cs.Schedule.Injections()
			}
			buf = strconv.AppendInt(buf, int64(count), 10)
		case "{suffix}":
			buf = strconv.AppendInt(buf, int64(cs.suffix), 10)
		case "{churn}":
			buf = append(buf, orNone(cs.ChurnName, cs.ChurnName)...)
		case "{churn-k}":
			buf = strconv.AppendInt(buf, int64(cs.ChurnK), 10)
		case "{churn-inject}":
			buf = append(buf, orNone(cs.ChurnName, cs.ChurnSchedule.String())...)
		default:
			buf, rest = append(buf, '{'), rest[1:]
			continue
		}
		rest = rest[end+1:]
	}
	return string(append(buf, rest...))
}

// orNone is value on a cell that has the axis, "none" on one without.
func orNone(axis, value string) string {
	if axis == "" {
		return "none"
	}
	return value
}

// DescribeLine describes the topology of a single-size `graph` line (the
// directive's body, such as "torus 12 w=3") as Compile would at the
// master seed, building nothing.
func DescribeLine(line string, seed uint64) (graph.Desc, error) {
	gs, err := parseGraph(strings.Fields(line))
	if err == nil && (gs.Family == suiteFamily || gs.Lo != gs.Hi) {
		err = fmt.Errorf("not a single-size line")
	}
	if err != nil {
		return graph.Desc{}, fmt.Errorf("campaign: graph %s: %w", line, err)
	}
	return describeGraph(gs, gs.line(), gs.Lo, seed)
}

// describeGraph describes one swept topology (line is gs.lineFor(n)).
// Random families draw their structure from the line's seed= or else a
// seed derived from the master seed and the canonical graph descriptor,
// so a grown campaign re-builds identical graphs for the lines it kept.
func describeGraph(gs GraphSpec, line string, n int, masterSeed uint64) (graph.Desc, error) {
	gseed := rng.DeriveString(masterSeed, "campaign-graph|"+line)
	if gs.Seeded {
		gseed = gs.Seed
	}
	switch {
	case gs.W > 0: // grid or torus of fixed width
		return graph.DescribeLattice(gs.Family, gs.W, n/gs.W)
	case gs.D > 0: // regular with explicit degree
		return graph.DescribeRegular(n, gs.D, gseed)
	case gs.P > 0 && gs.Family == "gnp":
		return graph.DescribeGNP(n, gs.P, gseed), nil
	case gs.P > 0 && gs.Family == "rgg":
		return graph.DescribeGeometric(n, gs.P, gseed), nil
	default:
		return graph.Describe(gs.Family, n, gseed)
	}
}
