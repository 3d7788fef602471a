// Channelassign: radio channel assignment on an interference graph.
//
// Access points that interfere must broadcast on different channels —
// vertex coloring with a Δ+1 channel budget. Protocol COLORING solves it
// anonymously (no identifiers needed) while probing a single interfering
// neighbor per activation, and repairs the assignment after channel
// database corruption.
//
// It is one of the five programs that use the selfstab facade, and the
// way a reader sees that API at work.
package main

import (
	"fmt"
	"log"

	selfstab "repro"
	"repro/internal/model"
	"repro/internal/rng"
)

func main() {
	log.SetFlags(0)

	// Dense deployment: a torus of access points (every AP interferes
	// with four others), plus a sparser random deployment.
	for _, topo := range []struct {
		name string
		n    int
	}{
		{"torus", 16},
		{"rgg", 30},
	} {
		net, err := selfstab.Generate(topo.name, topo.n, 42)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := selfstab.New(net, "coloring")
		if err != nil {
			log.Fatal(err)
		}
		budget := net.Graph.MaxDegree() + 1

		res, err := selfstab.Run(sys, selfstab.Options{Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		channels := selfstab.Colors(res.Final)
		fmt.Printf("%s: %d APs, channel budget %d\n", net.Graph, net.Graph.N(), budget)
		fmt.Printf("  assignment valid: %v (after %d rounds, %d channel switches)\n",
			res.LegitimateAtSilence, res.RoundsToSilence, res.Report.CommWrites)
		fmt.Printf("  channels in use: %d of %d\n", distinct(channels), budget)

		// Corrupt the channel table of a third of the APs.
		corrupted := res.Final.Clone()
		r := rng.New(7)
		faults := net.Graph.N() / 3
		for i := 0; i < faults; i++ {
			p := r.Intn(net.Graph.N())
			corrupted.SetComm(p, 0, r.Intn(budget))
		}
		res2, err := selfstab.Run(sys, selfstab.Options{Seed: 12, Initial: corrupted})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after corrupting %d channel tables: repaired in %d rounds, %d switches\n\n",
			faults, res2.RoundsToSilence, res2.Report.CommWrites)
		validate(net, res2.Final)
	}
}

func distinct(xs []int) int {
	set := map[int]bool{}
	for _, x := range xs {
		set[x] = true
	}
	return len(set)
}

func validate(net *selfstab.Network, cfg *model.Config) {
	channels := selfstab.Colors(cfg)
	for _, e := range net.Graph.Edges() {
		if channels[e[0]] == channels[e[1]] {
			log.Fatalf("interfering APs %d and %d share channel %d", e[0], e[1], channels[e[0]])
		}
	}
}
