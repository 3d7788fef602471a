package selfstab

import (
	"testing"

	"repro/internal/graph"
)

func TestGenerateAndRunColoring(t *testing.T) {
	t.Parallel()
	net, err := Generate("grid", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, "coloring")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatalf("silent=%v legit=%v", res.Silent, res.LegitimateAtSilence)
	}
	colors := Colors(res.Final)
	if len(colors) != net.Graph.N() {
		t.Fatal("color vector size wrong")
	}
	for _, e := range net.Graph.Edges() {
		if colors[e[0]] == colors[e[1]] {
			t.Fatalf("edge %v monochromatic", e)
		}
	}
}

func TestRunMISWithStability(t *testing.T) {
	t.Parallel()
	net, err := Generate("path", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, "mis")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{Seed: 3, SuffixRounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatal("MIS did not stabilize")
	}
	if res.Report.KEfficiency > 1 {
		t.Fatal("MIS not 1-efficient via the facade")
	}
	in := InMIS(res.Final)
	if len(in) != 10 {
		t.Fatal("InMIS size wrong")
	}
	if res.Report.StableProcesses(1) < 5 { // ⌊(Lmax+1)/2⌋ on a 10-path = 5
		t.Fatalf("only %d 1-stable processes", res.Report.StableProcesses(1))
	}
}

func TestRunMatchingDecoding(t *testing.T) {
	t.Parallel()
	net, err := Generate("cycle", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, "matching")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatal("MATCHING did not stabilize")
	}
	edges := MatchedEdges(sys, res.Final)
	if len(edges) == 0 {
		t.Fatal("no matched edges on a 10-cycle")
	}
}

func TestBaselines(t *testing.T) {
	t.Parallel()
	net := NewNetwork(graph.Grid(3, 3))
	for _, build := range []func(*Network) (res *RunResult, err error){
		func(n *Network) (*RunResult, error) {
			sys, err := New(n, "coloring-baseline")
			if err != nil {
				return nil, err
			}
			return Run(sys, Options{Seed: 5})
		},
		func(n *Network) (*RunResult, error) {
			sys, err := New(n, "mis-baseline")
			if err != nil {
				return nil, err
			}
			return Run(sys, Options{Seed: 5})
		},
		func(n *Network) (*RunResult, error) {
			sys, err := New(n, "matching-baseline")
			if err != nil {
				return nil, err
			}
			return Run(sys, Options{Seed: 5})
		},
	} {
		res, err := build(net)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatal("baseline did not stabilize")
		}
	}
}

func TestRunConcurrentFacade(t *testing.T) {
	net, err := Generate("gnp", 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, "mis")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"global", "neighborhood", "registers"} {
		res, err := RunConcurrent(sys, ConcurrentOptions{Seed: 6, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent || !res.Legitimate {
			t.Fatalf("mode %s: silent=%v legit=%v", mode, res.Silent, res.Legitimate)
		}
	}
	if _, err := RunConcurrent(sys, ConcurrentOptions{Mode: "warp"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	net, err := Generate("path", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, "coloring")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, Options{Scheduler: "nope"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestGenerateUnknown(t *testing.T) {
	t.Parallel()
	if _, err := Generate("mobius", 10, 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBFSTreeFacade(t *testing.T) {
	t.Parallel()
	net, err := Generate("gnp", 14, 8)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, "bfstree")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent || !res.LegitimateAtSilence {
		t.Fatal("BFS tree did not stabilize via the facade")
	}
	if res.Report.KEfficiency < 2 {
		t.Fatal("full-read BFS should read several neighbors per step")
	}
}

func TestTransformedFacade(t *testing.T) {
	t.Parallel()
	net, err := Generate("grid", 9, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, protocol := range []string{"bfstree-xform", "mis-xform"} {
		sys, err := New(net, protocol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sys, Options{Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent || !res.LegitimateAtSilence {
			t.Fatal("transformed protocol did not stabilize via the facade")
		}
		if res.Report.KEfficiency > 1 {
			t.Fatalf("transformed protocol read %d neighbors in one step", res.Report.KEfficiency)
		}
	}
}
