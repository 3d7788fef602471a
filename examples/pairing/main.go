// Pairing: peer backup pairing on an overlay network.
//
// Nodes of a peer-to-peer overlay pair up with a direct neighbor to
// mirror each other's data. A maximal matching guarantees no node is
// left unpaired while a willing neighbor is also unpaired. Protocol
// MATCHING maintains the pairing self-stabilizingly while each paired
// node only ever re-checks its own partner (1-stability), and the
// Theorem 8 bound 2⌈m/(2Δ-1)⌉ lower-bounds the number of paired nodes.
//
// The example also runs the goroutine-per-process runtime: every overlay
// node is a real goroutine over shared registers.
//
// It is one of the five programs that use the selfstab facade, and the
// way a reader sees that API at work.
package main

import (
	"fmt"
	"log"

	selfstab "repro"
	"repro/internal/protocols/matching"
)

func main() {
	log.SetFlags(0)

	net, err := selfstab.Generate("regular", 20, 77)
	if err != nil {
		log.Fatal(err)
	}
	g := net.Graph
	fmt.Printf("overlay: %s\n", g)
	bound := matching.StabilityBound(g.M(), g.MaxDegree())
	fmt.Printf("Theorem 8 guarantee: at least %d of %d nodes end up paired\n\n", bound, g.N())

	sys, err := selfstab.New(net, "matching")
	if err != nil {
		log.Fatal(err)
	}

	// Lock-step simulator with stabilized-phase observation.
	res, err := selfstab.Run(sys, selfstab.Options{Seed: 3, SuffixRounds: 3 * g.N()})
	if err != nil {
		log.Fatal(err)
	}
	pairs := selfstab.MatchedEdges(sys, res.Final)
	fmt.Printf("lock-step run: %d pairs after %d rounds (valid maximal matching: %v)\n",
		len(pairs), res.RoundsToSilence, res.LegitimateAtSilence)
	fmt.Printf("paired nodes: %d (bound %d); 1-stable nodes in steady state: %d\n",
		2*len(pairs), bound, res.Report.StableProcesses(1))
	fmt.Printf("pairs: %v\n\n", pairs)

	// Concurrent run: one goroutine per overlay node, register-level
	// atomicity (weaker than the paper's model — see E12 in `ssbench -list`
	// and internal/concurrent).
	cres, err := selfstab.RunConcurrent(sys, selfstab.ConcurrentOptions{
		Seed: 4,
		Mode: "registers",
	})
	if err != nil {
		log.Fatal(err)
	}
	cpairs := selfstab.MatchedEdges(sys, cres.Final)
	fmt.Printf("concurrent run (registers mode): silent=%v valid=%v in %v, %d process steps\n",
		cres.Silent, cres.Legitimate, cres.Elapsed.Round(1000), cres.TotalSteps)
	fmt.Printf("pairs found concurrently: %d (paired nodes %d >= bound %d: %v)\n",
		len(cpairs), 2*len(cpairs), bound, 2*len(cpairs) >= bound)
}
