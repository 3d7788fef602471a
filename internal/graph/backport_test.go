package graph

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// withBackLimit runs f with back entries saturating at limit and then
// restores the real limit. Graphs built inside f are valid only inside
// it, and a test that calls it must not run in parallel: backLimit is
// package state every graph reads.
func withBackLimit(limit uint16, f func()) {
	old := backLimit
	backLimit = limit
	defer func() { backLimit = old }()
	f()
}

// checkBackPorts requires every port of g to round-trip through
// BackPort: the port at the neighbor leads back to p, and its own back
// port is the one it came from.
func checkBackPorts(t *testing.T, g *Graph) {
	t.Helper()
	for p := 0; p < g.N(); p++ {
		for port := 1; port <= g.Degree(p); port++ {
			q := g.Neighbor(p, port)
			back := g.BackPort(p, port)
			if g.Neighbor(q, back) != p || g.BackPort(q, back) != port {
				t.Fatalf("%s: BackPort(%d,%d) = %d does not round-trip through %d", g.Name(), p, port, back, q)
			}
		}
	}
}

// encodingCorpus reads the committed FuzzGraphEncodingRoundTrip corpus:
// files of the "go test fuzz v1" form holding one []byte value.
func encodingCorpus(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGraphEncodingRoundTrip", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus (%v)", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, val, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(val, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestSaturatedBackPorts lowers the saturation to 2, so that every
// process of degree 3 or more holds saturated back entries, and runs the
// dynamic-graph tests, the encoding fuzz seeds and committed corpus,
// and a BackPort round trip over every named generator, static and as a
// mutable copy.
func TestSaturatedBackPorts(t *testing.T) {
	withBackLimit(2, func() {
		t.Run("mutations", checkMutationsAgainstOracle)
		t.Run("round-trip", checkRemoveRestoreRoundTrip)
		t.Run("crash-revive", checkCrashReviveIsolation)
		t.Run("encoding", func(t *testing.T) {
			for _, seed := range append(encodingSeeds(), encodingCorpus(t)...) {
				checkEncodingRoundTrip(t, seed)
			}
		})
		t.Run("generators", func(t *testing.T) {
			for _, name := range NamedGenerators() {
				g, err := Named(name, 40, 3)
				if err != nil {
					t.Fatal(err)
				}
				checkBackPorts(t, g)
				dyn := g.MutableCopy()
				if err := dyn.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkBackPorts(t, dyn)
			}
		})
	})
}

// TestBackPortsAtTheLimit builds a star whose hub has 65 537 leaves, so
// the leaves behind the hub's last ports store saturated back entries,
// and checks BackPort both ways around the limit; then it removes and
// restores one of those edges on a mutable copy, which moves the hub's
// last leaf below the limit and back.
func TestBackPortsAtTheLimit(t *testing.T) {
	t.Parallel()
	const leaves = 1<<16 + 1
	g := Star(leaves + 1)
	check := func(g *Graph) {
		t.Helper()
		for port := leaves - 3; port <= leaves; port++ {
			leaf := g.Neighbor(0, port)
			if back := g.BackPort(0, port); back != 1 {
				t.Fatalf("hub port %d: BackPort = %d, want 1", port, back)
			}
			if back := g.BackPort(leaf, 1); back != port {
				t.Fatalf("leaf %d behind hub port %d: BackPort = %d", leaf, port, back)
			}
		}
	}
	check(g)
	dyn := g.MutableCopy()
	victim := dyn.Neighbor(0, leaves-1)
	if !dyn.RemoveEdge(0, victim) {
		t.Fatalf("RemoveEdge(0, %d) failed", victim)
	}
	if last := dyn.Neighbor(0, leaves-1); dyn.BackPort(last, 1) != leaves-1 {
		t.Fatalf("leaf %d moved to hub port %d: BackPort = %d", last, leaves-1, dyn.BackPort(last, 1))
	}
	if err := dyn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !dyn.RestoreEdge(0, victim) {
		t.Fatalf("RestoreEdge(0, %d) failed", victim)
	}
	if dyn.Neighbor(0, leaves) != victim || dyn.BackPort(victim, 1) != leaves {
		t.Fatalf("restored leaf %d not behind the hub's last port", victim)
	}
	if err := dyn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dyn.ResetTopology()
	check(dyn)
}
