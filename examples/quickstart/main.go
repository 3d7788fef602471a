// Quickstart: build a network, run the paper's three 1-efficient
// protocols on it from adversarial initial configurations, and print the
// communication-efficiency measures of Section 3.
//
// It is one of the five programs that use the selfstab facade, and the
// way a reader sees that API at work.
package main

import (
	"fmt"
	"log"

	selfstab "repro"
)

func main() {
	log.SetFlags(0)

	// A 4x4 grid network; local identifiers (colors) are computed
	// greedily for the protocols that need them.
	net, err := selfstab.Generate("grid", 16, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %s\n\n", net.Graph)

	protocols := []struct{ name, protocol string }{
		{"COLORING (Fig. 7)", "coloring"},
		{"MIS      (Fig. 8)", "mis"},
		{"MATCHING (Fig. 10)", "matching"},
	}
	for _, p := range protocols {
		sys, err := selfstab.New(net, p.protocol)
		if err != nil {
			log.Fatal(err)
		}
		// Run from a uniformly random (adversarial) configuration under
		// the distributed fair scheduler, then watch the stabilized
		// phase for 48 extra rounds.
		res, err := selfstab.Run(sys, selfstab.Options{Seed: 7, SuffixRounds: 48})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", p.name)
		fmt.Printf("  stabilized: %v (legitimate: %v) after %d rounds\n",
			res.Silent, res.LegitimateAtSilence, res.RoundsToSilence)
		fmt.Printf("  k-efficiency: %d neighbor/step   comm complexity: %d bits/step\n",
			res.Report.KEfficiency, res.Report.CommComplexityBits)
		fmt.Printf("  eventually-1-stable processes: %d of %d\n\n",
			res.Report.StableProcesses(1), res.Report.N)
	}

	// Decode the outputs of one protocol run.
	sys, err := selfstab.New(net, "matching")
	if err != nil {
		log.Fatal(err)
	}
	res, err := selfstab.Run(sys, selfstab.Options{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximal matching found: %v\n", selfstab.MatchedEdges(sys, res.Final))
}
