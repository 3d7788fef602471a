// Package frozen provides deliberately communication-stable — and
// therefore deliberately broken — variants of the paper's protocols.
//
// Theorems 1 and 2 prove that no ♦-k-stable (k < Δ) protocol can be
// neighbor-complete: once every process confines its reads to a strict
// neighbor subset, two silent executions can be cut and stitched into a
// silent configuration that violates the predicate, and nobody ever
// looks in the right direction to notice.
//
// The variants here realize exactly the protocols the theorems forbid:
// each is the paper's protocol with its perpetual-scan behaviour removed,
// making every process eventually read at most one fixed neighbor
// (♦-1-stable), and keeps the paper's protocol's legitimacy predicate,
// the one it fails. The engine names them frozen, mis-frozen and
// matching-frozen; the verify package searches their configurations for
// the theorems' counterexamples, silent and illegitimate ones; their
// existence is the impossibility result made concrete.
package frozen

import (
	"repro/internal/model"
	"repro/internal/protocols/coloring"
	"repro/internal/protocols/matching"
	"repro/internal/protocols/mis"
)

// ColoringSpec is Protocol COLORING without the "no conflict: advance"
// action: a process only reads (and only ever re-reads) the neighbor its
// cur pointer rests on, recoloring when that one neighbor conflicts.
// Every process is eventually 1-stable; conflicts across unobserved edges
// are never detected.
func ColoringSpec() *model.Spec {
	return freeze(coloring.Spec(), "COLORING-FROZEN", 1) // keep only the conflict action
}

// MISSpec is Protocol MIS without the "scan: dominator advances cur"
// action: a Dominator whose cur neighbor poses no threat stops reading
// anything else. Two adjacent Dominators looking away from each other
// deadlock.
func MISSpec(maxColors int) *model.Spec {
	return freeze(mis.Spec(maxColors), "MIS-FROZEN", 2) // drop the dominator scan
}

// MatchingSpec is Protocol MATCHING without the "seek: advance cur past
// unusable neighbor" action: a free process whose cur neighbor is
// unusable stops searching. Two free neighbors that never look at each
// other stay unmatched forever.
func MatchingSpec(maxColors int) *model.Spec {
	return freeze(matching.Spec(maxColors), "MATCHING-FROZEN", 5) // drop the seek action
}

// freeze renames full and keeps only its first keep actions: the
// variables and the legitimacy predicate stay the real protocol's. The
// one-pass decision does not: full's First picks among actions the
// variant dropped, so the variant walks its guards.
func freeze(full *model.Spec, name string, keep int) *model.Spec {
	frozen := *full
	frozen.Name, frozen.Actions, frozen.First = name, full.Actions[:keep], nil
	return &frozen
}
