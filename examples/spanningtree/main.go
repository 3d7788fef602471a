// Spanningtree: the paper's open question, live.
//
// The concluding remarks of the paper ask whether a *general
// transformer* can make any local-checking protocol communication-
// efficient in the stabilized phase. This example takes the classical
// full-read self-stabilizing BFS spanning-tree protocol (the archetype
// of "self-stabilization by local checking"), mechanically transforms it
// with the cached-view transformer of internal/transformer, and compares
// the two side by side:
//
//   - the full-read original reads Δ neighbors per activation, forever;
//   - the transformed protocol reads exactly one neighbor per step, by
//     construction — and, measured here, still self-stabilizes to the
//     same BFS tree.
//
// It is one of the five programs that use the selfstab facade, and the
// way a reader sees that API at work.
package main

import (
	"fmt"
	"log"

	selfstab "repro"
	"repro/internal/model"
	"repro/internal/protocols/bfstree"
)

func main() {
	log.SetFlags(0)

	net, err := selfstab.Generate("gnp", 24, 31)
	if err != nil {
		log.Fatal(err)
	}
	const root = 0 // the bfstree protocols are rooted at process 0
	fmt.Printf("network: %s, root %d\n\n", net.Graph, root)

	full, err := selfstab.New(net, "bfstree")
	if err != nil {
		log.Fatal(err)
	}
	xform, err := selfstab.New(net, "bfstree-xform")
	if err != nil {
		log.Fatal(err)
	}

	for _, v := range []struct {
		name string
		sys  *model.System
	}{
		{"full-read BFS (local checking)", full},
		{"transformed BFS (cached view) ", xform},
	} {
		res, err := selfstab.Run(v.sys, selfstab.Options{Seed: 5, SuffixRounds: 2 * net.Graph.N()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", v.name)
		fmt.Printf("  stabilized: %v (correct BFS tree: %v) in %d rounds\n",
			res.Silent, res.LegitimateAtSilence, res.RoundsToSilence)
		fmt.Printf("  k-efficiency: %d neighbor(s)/step; comm complexity: %d bits/step\n",
			res.Report.KEfficiency, res.Report.CommComplexityBits)
		fmt.Printf("  steady-state reads per activation: %.2f\n\n",
			res.Report.SuffixAvgReadsPerSelection())
		if res.Silent {
			fmt.Printf("  tree depth: %d (true eccentricity of the root: %d)\n\n",
				bfstree.Depth(res.Final), trueEcc(net, root))
		}
	}
}

func trueEcc(net *selfstab.Network, root int) int {
	ecc := 0
	for _, d := range net.Graph.BFS(root) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
