package campaign

import (
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// lazyGraphSrc sweeps three topologies, two of them expensive enough
// that building them for nothing would show, with an at-start adversary
// so snapshot warm-ups need graphs too.
const lazyGraphSrc = `campaign lazy
seed 2009
trials 2
max-steps 100000
graph path 6
graph gnp 12
graph grid 9
protocol coloring mis
adversary uniform k=1 inject=at-start
adversary comm k=1 inject=at-start
metrics silent legitimate rounds moves
`

func compileSrc(t *testing.T, src string) *Plan {
	t.Helper()
	plan, err := Compile(mustParse(t, src), 2)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func jsonlOf(t *testing.T, out *Outcome) string {
	t.Helper()
	var sb strings.Builder
	if err := out.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCompileBuildsNoGraph: cell keys, the duplicate-name check and the
// size check all come from descriptors (a Plan has nowhere to keep a
// graph: its instances build them).
func TestCompileBuildsNoGraph(t *testing.T) {
	t.Parallel()
	plan := compileSrc(t, lazyGraphSrc)
	if got := plan.Cells[0].Graph(); got.Name != "path-6" || got.N != 6 {
		t.Fatalf("cell 0 describes (%s, n=%d), want (path-6, 6)", got.Name, got.N)
	}
	if key := plan.Cells[len(plan.Cells)-1].Key; !strings.HasPrefix(key, "grid-3x3|mis|") {
		t.Fatalf("last cell key %q does not embed the described graph name", key)
	}
}

// TestGraphsAreBuiltOnDemand: a cold run builds each swept topology
// once, however many cells and snapshot warm-ups share it; a warm run
// builds none; a run with one entry missing builds that cell's topology
// and no other. Bytes are the same each time.
func TestGraphsAreBuiltOnDemand(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plan := compileSrc(t, lazyGraphSrc)
	out, err := plan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if out.GraphsBuilt != 3 {
		t.Fatalf("cold run over 3 topologies built %d graphs", out.GraphsBuilt)
	}
	// One graph per topology and one system per (graph, protocol) pair,
	// shared by the pair's cells.
	all := make([]int, len(plan.Cells))
	for i := range all {
		all[i] = i
	}
	in, err := plan.Instantiate(nil, all)
	if err != nil {
		t.Fatal(err)
	}
	systems, graphs := map[*model.System]bool{}, map[*topology]*graph.Graph{}
	for i := range plan.Cells {
		sys, topo := in.System(i), plan.Cells[i].topo
		systems[sys] = true
		if g, seen := graphs[topo]; seen && g != sys.Graph() {
			t.Fatalf("cell %d runs on a graph other than its topology's", i)
		}
		graphs[topo] = sys.Graph()
	}
	if in.graphsBuilt != 3 || len(systems) != 3*2 {
		t.Fatalf("instance built %d graphs and %d systems, want 3 and one per (graph, protocol) pair", in.graphsBuilt, len(systems))
	}
	cold := jsonlOf(t, out)

	plan = compileSrc(t, lazyGraphSrc)
	out, err = plan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHits != len(plan.Cells) || out.GraphsBuilt != 0 {
		t.Fatalf("warm run: %d of %d hits, %d graphs built, want all and none", out.CacheHits, len(plan.Cells), out.GraphsBuilt)
	}
	if warm := jsonlOf(t, out); warm != cold {
		t.Fatal("warm bytes differ from cold bytes")
	}

	// Drop one gnp cell's entry: only gnp is built, for the cell and the
	// snapshot warm-up of its (graph, protocol) pair.
	plan = compileSrc(t, lazyGraphSrc)
	victim := -1
	for i := range plan.Cells {
		if strings.HasPrefix(plan.Cells[i].GraphLine, "gnp") {
			victim = i
			break
		}
	}
	entry := NewDirBackend(dir).path(cellHash(plan.cellFingerprint(&plan.Cells[victim])))
	if err := os.Remove(entry); err != nil {
		t.Fatal(err)
	}
	out, err = plan.Run(RunOptions{Cache: NewDirBackend(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheMisses != 1 || out.GraphsBuilt != 1 {
		t.Fatalf("one-cell miss: %d misses, %d graphs built, want 1 and 1", out.CacheMisses, out.GraphsBuilt)
	}
	if got := jsonlOf(t, out); got != cold {
		t.Fatal("bytes after a one-cell recompute differ from cold bytes")
	}
}

// TestBuildFailureSurfacesAtMaterialize: what a descriptor cannot
// foresee fails the run, naming the graph line, not the compile. K7 is
// the only 6-regular graph on 7 processes and the pairing model all but
// never draws it.
func TestBuildFailureSurfacesAtMaterialize(t *testing.T) {
	t.Parallel()
	plan := compileSrc(t, "campaign k7\ntrials 1\ngraph regular 7 d=6\nprotocol coloring\n")
	_, err := plan.Run(RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "graph regular 7 d=6") {
		t.Fatalf("unbuildable graph: %v, want an error naming the graph line", err)
	}
}
