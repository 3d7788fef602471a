package selfstab_test

import (
	"fmt"
	"log"

	selfstab "repro"
)

// Example runs Protocol MIS on a ring and reports the paper's headline
// measures: the protocol stabilizes to a maximal independent set while
// reading a single neighbor per step.
func Example() {
	net, err := selfstab.Generate("cycle", 9, 1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := selfstab.New(net, "mis")
	if err != nil {
		log.Fatal(err)
	}
	res, err := selfstab.Run(sys, selfstab.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stabilized:", res.Silent)
	fmt.Println("legitimate:", res.LegitimateAtSilence)
	fmt.Println("k-efficiency:", res.Report.KEfficiency)
	// Output:
	// stabilized: true
	// legitimate: true
	// k-efficiency: 1
}

// ExampleRun_stabilizedPhase measures the stabilized phase of Protocol
// MATCHING: married processes keep probing only their partner.
func ExampleRun_stabilizedPhase() {
	net, err := selfstab.Generate("path", 8, 2)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := selfstab.New(net, "matching")
	if err != nil {
		log.Fatal(err)
	}
	res, err := selfstab.Run(sys, selfstab.Options{Seed: 2, SuffixRounds: 40})
	if err != nil {
		log.Fatal(err)
	}
	bound := 2 * ((net.Graph.M() + 2*net.Graph.MaxDegree() - 2) / (2*net.Graph.MaxDegree() - 1))
	fmt.Println("matched processes >= Theorem 8 bound:",
		res.Report.StableProcesses(1) >= bound)
	// Output:
	// matched processes >= Theorem 8 bound: true
}

// ExampleNew_transformed demonstrates the paper's Section 6 open
// question: a full-read protocol mechanically becomes 1-efficient.
func ExampleNew_transformed() {
	net, err := selfstab.Generate("grid", 9, 3)
	if err != nil {
		log.Fatal(err)
	}
	xform, err := selfstab.New(net, "bfstree-xform")
	if err != nil {
		log.Fatal(err)
	}
	res, err := selfstab.Run(xform, selfstab.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BFS tree correct:", res.LegitimateAtSilence)
	fmt.Println("neighbors read per step:", res.Report.KEfficiency)
	// Output:
	// BFS tree correct: true
	// neighbors read per step: 1
}
