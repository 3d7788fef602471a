package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
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

	topo     *topology     // shared by every cell of one (graph line, size) point
	suffix   int           // post-silence suffix rounds, resolved for the topology's n
	snapshot *model.Config // silent snapshot, filled lazily (ensureSnapshots)
}

// topology is one (graph line, size) point of the graph axis: the
// descriptor its cells are keyed from, and the graph itself once a cell
// that missed the cache has needed it (Plan.graphFor).
type topology struct {
	desc graph.Desc
	g    *graph.Graph
}

// Graph describes the cell's topology: the name and size cell keys
// embed. The topology itself exists only once the cell is materialized.
func (cs *CellSpec) Graph() graph.Desc { return cs.topo.desc }

// atStart reports whether the cell injects into a silent snapshot.
func (cs *CellSpec) atStart() bool {
	return cs.Adversary != "" && cs.Schedule.Kind == fault.KindAtStart
}

// Plan is a compiled campaign: the deterministic cell list plus the
// engine cells that execute it.
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

	cfg engine.Config
	// cells is index-aligned with Cells; keys are filled at Compile,
	// the run closures (and the systems they capture) lazily by
	// ensureEngineCells for exactly the cells that will execute.
	cells   []engine.Cell
	systems map[sysKey]*model.System
	// graphsBuilt counts the topologies graphFor has built.
	graphsBuilt int
}

// sysKey identifies a (graph, protocol) pair whose built system and
// silent snapshot are shared across cells (both are immutable).
type sysKey struct {
	topo  *topology
	proto string
}

// GraphsBuilt reports how many topologies the plan has built so far: one
// per (graph line, size) point some materialized cell runs on, none for
// a run served wholly from the cache.
func (p *Plan) GraphsBuilt() int { return p.graphsBuilt }

// graphFor builds (or returns the shared) topology of a cell. Not safe
// for concurrent use: like the rest of Materialize it runs before the
// workers launch.
func (p *Plan) graphFor(cs *CellSpec) (*graph.Graph, error) {
	t := cs.topo
	if t.g == nil {
		g, err := t.desc.Build()
		if err != nil {
			return nil, fmt.Errorf("campaign: graph %s: %w", cs.GraphLine, err)
		}
		t.g = g
		p.graphsBuilt++
	}
	return t.g, nil
}

// SetObserver routes the plan's events — both the engine-level lifecycle
// events of callers that feed EngineCells to the engine themselves and
// the core-level diagnostics of the trial closures — to o. Execute sets
// it from its RunOptions; callers bypassing Execute set it before
// EngineCells. The closures read it at trial time, so it must be set
// before the pool launches.
func (p *Plan) SetObserver(o obs.Observer) { p.cfg.Observer = o }

// EngineCells materializes every cell (building graphs and systems and
// computing any still-missing at-start snapshots in one warm-up batch)
// and returns the runnable engine cells, index-aligned with Cells. Callers
// that bypass Execute (the registry's experiments) feed them to
// engine.RunCells directly.
func (p *Plan) EngineCells() ([]engine.Cell, error) {
	all := make([]int, len(p.Cells))
	for i := range all {
		all[i] = i
	}
	if err := p.Materialize(all); err != nil {
		return nil, err
	}
	return p.cells, nil
}

// Materialize prepares the given cells (indices into p.Cells) for
// execution: their topologies, snapshot warm-ups, then system
// construction and run closures. Not safe for concurrent use (call
// before launching the pool, as Execute does). Exported for bench/,
// which times it as a step of its own.
func (p *Plan) Materialize(cells []int) error {
	if err := p.ensureSnapshots(cells); err != nil {
		return err
	}
	return p.ensureEngineCells(cells)
}

// Compile expands a campaign into its deterministic cell list. Cell keys
// embed graph names and sizes, and both come from the families'
// descriptors (graph.Desc): no topology is built here but the small
// graphs of a `graph suite` line (graph.DescribeSuite). Topologies,
// protocol systems, run closures and the silent snapshots required by
// at-start adversary cells materialize lazily for exactly the cells a
// Run will execute, so fully-cached resumes and foreign shards never pay
// for them. What a descriptor cannot foresee — a random regular pairing
// that runs out of attempts — fails at Materialize instead.
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
	// Engine cells carry their keys now (the cache pass needs nothing
	// more); systems and run closures materialize lazily.
	p.cells = make([]engine.Cell, len(p.Cells))
	for i := range p.Cells {
		p.cells[i].Key = p.Cells[i].Key
	}
	p.systems = map[sysKey]*model.System{}
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

// ensureSnapshots obtains the legitimate silent snapshot every at-start
// fault cell among cells (indices into p.Cells) injects into, one
// warm-up batch for all distinct still-missing (graph, protocol) pairs.
// Snapshots are shared across every cell of a pair, so later calls for
// other shards or cells of the same pair are free. Not safe for
// concurrent use (call before launching the pool, as Run does).
func (p *Plan) ensureSnapshots(cells []int) error {
	idx := map[sysKey]int{}
	var specs []engine.ProtoCell
	for _, i := range cells {
		cs := &p.Cells[i]
		if !cs.atStart() || cs.snapshot != nil {
			continue
		}
		key := sysKey{cs.topo, cs.Protocol}
		if _, ok := idx[key]; !ok {
			g, err := p.graphFor(cs)
			if err != nil {
				return err
			}
			idx[key] = len(specs)
			specs = append(specs, engine.ProtoCell{Graph: g, Family: cs.Protocol})
		}
	}
	if len(specs) == 0 {
		return nil
	}
	snaps, err := engine.SilentSnapshots(p.cfg, specs)
	if err != nil {
		return fmt.Errorf("campaign: at-start snapshot warm-up: %w", err)
	}
	for i := range p.Cells {
		cs := &p.Cells[i]
		if cs.atStart() && cs.snapshot == nil {
			if j, ok := idx[sysKey{cs.topo, cs.Protocol}]; ok {
				cs.snapshot = snaps[j]
			}
		}
	}
	return nil
}

// sysFor builds (or returns the shared) system of a cell's
// (graph, protocol) pair; systems are immutable and shared across cells.
func (p *Plan) sysFor(cs *CellSpec) (*model.System, error) {
	key := sysKey{cs.topo, cs.Protocol}
	if sys, ok := p.systems[key]; ok {
		return sys, nil
	}
	g, err := p.graphFor(cs)
	if err != nil {
		return nil, err
	}
	sys, err := engine.Build(g, cs.Protocol, nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s on %s: %w", cs.Protocol, cs.GraphLine, err)
	}
	p.systems[key] = sys
	return sys, nil
}

// ensureEngineCells materializes the runnable closures for the given
// still-unbuilt cells: systems are built once per (graph, protocol) pair
// and shared, and each cell is its coordinates handed to engine.NewCell,
// the constructor the experiment registry's cells come from too. An
// at-start adversary cell starts every trial from its silent snapshot,
// every other cell from a random configuration. The closures read
// p.cfg when a trial runs, so the observer SetObserver binds later
// reaches them, and their diagnostics carry the cell's absolute campaign
// index, as the engine's lifecycle events do (ComputeCell passes it).
// Cells a fully-cached resume (or another shard) never executes are
// never built.
func (p *Plan) ensureEngineCells(cells []int) error {
	for _, i := range cells {
		if p.cells[i].Run != nil {
			continue
		}
		cs := &p.Cells[i]
		sys, err := p.sysFor(cs)
		if err != nil {
			return err
		}
		if cs.atStart() && cs.snapshot == nil {
			return fmt.Errorf("campaign: cell %q built without its snapshot (ensureSnapshots not called)", cs.Key)
		}
		p.cells[i], err = engine.NewCell(&p.cfg, engine.Scenario{
			Key: cs.Key, Index: cs.Index,
			System:       sys,
			Daemon:       cs.Daemon,
			SuffixRounds: cs.suffix,
			Snapshot:     cs.snapshot,
			Adversary:    cs.Adversary, K: cs.K, Schedule: cs.Schedule,
			Churn: cs.ChurnName, ChurnK: cs.ChurnK, ChurnSchedule: cs.ChurnSchedule,
		})
		if err != nil {
			return fmt.Errorf("campaign: cell %q: %w", cs.Key, err)
		}
	}
	return nil
}
