// Impossibility: Theorems 1 and 2, executed.
//
// The paper proves that no ♦-k-stable protocol (every process eventually
// confines its reads to k < Δ neighbors) can self-stabilize to a
// neighbor-complete predicate: two silent executions can be cut and
// stitched into a configuration that is silent — nobody ever reads
// across the seam — yet globally illegitimate.
//
// This example searches for those configurations against the frozen
// (♦-1-stable) protocol variants, prints each witness, checks the
// deadlock, and shows the real 1-efficient protocols escaping from the
// very same configuration because their perpetual scan eventually looks
// across the seam.
//
// It is the runnable form of the Theorem 1 and 2 witnesses that
// internal/verify finds for experiments E7 and E8.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)

	one, err := verify.TheoremOne()
	if err != nil {
		log.Fatal(err)
	}
	two, err := verify.TheoremTwo()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Theorem 1: anonymous networks (Figures 1-2) ===")
	for _, d := range one {
		report(d)
	}
	fmt.Println("=== Theorem 2: the rooted dag-oriented network (Figures 3-4) ===")
	for _, d := range two {
		report(d)
	}
}

func report(d *verify.Demo) {
	out, err := d.Check(1, 500000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s\n", d.Name, d.Frozen.Graph().Name())
	fmt.Printf("  witness (communication | internal, per process): %s\n", states(d))
	fmt.Printf("  frozen variant:  silent=%v illegitimate=%v -> impossibility witnessed: %v\n",
		out.FrozenSilent, out.Illegitimate, out.FrozenImpossible)
	fmt.Printf("  real protocol:   silent=%v recovers=%v (in %d steps)\n\n",
		out.RealSilent, out.RealRecovers, out.RecoverySteps)
}

// states renders each process's variables as "comm,...|internal,...".
func states(d *verify.Demo) string {
	sys, cfg := d.Frozen, d.Config
	procs := make([]string, cfg.N())
	for p := range procs {
		comm := make([]string, sys.CommWidth())
		for v := range comm {
			comm[v] = fmt.Sprint(cfg.Comm(p, v))
		}
		internal := make([]string, sys.InternalWidth())
		for v := range internal {
			internal[v] = fmt.Sprint(cfg.Internal(p, v))
		}
		procs[p] = strings.Join(comm, ",") + "|" + strings.Join(internal, ",")
	}
	return strings.Join(procs, " ")
}
