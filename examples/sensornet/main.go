// Sensornet: clusterhead election in a wireless sensor network.
//
// A random geometric graph models radio reachability; Protocol MIS
// elects clusterheads (a maximal independent set: every sensor either is
// a clusterhead or hears one, and no two clusterheads interfere). The
// example shows the two properties the paper is about:
//
//  1. self-stabilization — after we corrupt the state of random sensors
//     (battery swap, bit flips), the network re-elects a valid
//     clusterhead set without any coordinator;
//  2. communication efficiency — once stable, each dominated sensor
//     keeps listening to a single neighbor only (1-stability), so the
//     radio duty cycle of most of the network drops to one neighbor
//     probe per cycle instead of Δ.
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

	const sensors = 40
	net, err := selfstab.Generate("rgg", sensors, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor field: %s (radio degree Δ=%d)\n\n", net.Graph, net.Graph.MaxDegree())

	sys, err := selfstab.New(net, "mis")
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: cold start from arbitrary per-sensor state.
	res, err := selfstab.Run(sys, selfstab.Options{Seed: 5, SuffixRounds: 4 * sensors})
	if err != nil {
		log.Fatal(err)
	}
	heads := clusterheads(res.Final)
	fmt.Printf("cold start: %d clusterheads elected after %d rounds (valid: %v)\n",
		len(heads), res.RoundsToSilence, res.LegitimateAtSilence)
	fmt.Printf("stabilized duty cycle: %d/%d sensors listen to exactly one neighbor\n",
		res.Report.StableProcesses(1), sensors)
	fmt.Printf("mean radio reads per activation in steady state: %.2f (full-read would be up to %d)\n\n",
		res.Report.SuffixAvgReadsPerSelection(), net.Graph.MaxDegree())

	// Phase 2: transient fault — corrupt k random sensors and re-run
	// from the corrupted configuration.
	corrupted := res.Final.Clone()
	r := rng.New(99)
	const faults = 8
	for i := 0; i < faults; i++ {
		p := r.Intn(sensors)
		corrupted.SetComm(p, 0, r.Intn(2))                       // random role
		corrupted.SetInternal(p, 0, r.Intn(net.Graph.Degree(p))) // random pointer
	}
	res2, err := selfstab.Run(sys, selfstab.Options{Seed: 6, Initial: corrupted})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after corrupting %d sensors: re-stabilized in %d rounds (valid: %v)\n",
		faults, res2.RoundsToSilence, res2.LegitimateAtSilence)
	fmt.Printf("clusterheads after recovery: %d\n", len(clusterheads(res2.Final)))
}

func clusterheads(cfg *model.Config) []int {
	var heads []int
	for p, in := range selfstab.InMIS(cfg) {
		if in {
			heads = append(heads, p)
		}
	}
	return heads
}
