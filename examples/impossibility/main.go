// Impossibility: Theorems 1 and 2, executed.
//
// The paper proves that no ♦-k-stable protocol (every process eventually
// confines its reads to k < Δ neighbors) can self-stabilize to a
// neighbor-complete predicate: two silent executions can be cut and
// stitched into a configuration that is silent — nobody ever reads
// across the seam — yet globally illegitimate.
//
// This example builds those configurations against the frozen
// (♦-1-stable) protocol variants, checks the deadlock, and shows the
// real 1-efficient protocols escaping from the very same configuration
// because their perpetual scan eventually looks across the seam.
//
// It is the runnable form of the Theorem 1 and 2 witnesses that
// internal/verify builds for experiments E7 and E8.
package main

import (
	"fmt"
	"log"

	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)

	fmt.Println("=== Theorem 1/2 constructions (handcrafted, Figures 1-6) ===")
	demos, err := verify.AllHandcrafted()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range demos {
		report(d)
	}

	fmt.Println("=== Theorem 1: the proof's cut-and-stitch procedure, live ===")
	demo, tr, err := verify.StitchSearchColoring(2009)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("harvested silent γA (seed %d) and γB (seed %d); stitch case: %s\n",
		tr.SeedA, tr.SeedB, tr.Case)
	report(demo)

	fmt.Println("=== Theorem 2: stitch on the rooted dag-oriented network (Fig. 3) ===")
	demo2, tr2, err := verify.StitchSearchTheorem2Coloring(2010)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("harvested γ2 (seed %d) and γ5 (seed %d)\n", tr2.SeedA, tr2.SeedB)
	report(demo2)
}

func report(d *verify.Demo) {
	out, err := d.Check(1, 500000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-32s seam {%d,%d}:\n", d.Name, d.SeamP, d.SeamQ)
	fmt.Printf("  frozen variant:  silent=%v illegitimate=%v -> impossibility witnessed: %v\n",
		out.FrozenSilent, out.Illegitimate, out.FrozenImpossible)
	fmt.Printf("  real protocol:   silent=%v recovers=%v (in %d steps)\n\n",
		out.RealSilent, out.RealRecovers, out.RecoverySteps)
}
