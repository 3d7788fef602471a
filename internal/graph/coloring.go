package graph

import (
	"fmt"

	"repro/internal/rng"
)

// This file provides the "locally identified network" substrate required
// by the MIS and MATCHING protocols (Section 5.2): every process carries
// a constant color C.p that differs from the color of each neighbor, and
// colors are totally ordered by ≺ (here: integer <). Theorem 4 shows such
// colors induce a dag-orientation.

// GreedyLocalColoring returns a proper distance-1 coloring using at most
// Δ+1 colors, colors numbered 1..Δ+1 (the paper starts palettes at 1).
// Processes are colored in id order with the smallest free color.
func GreedyLocalColoring(g *Graph) []int {
	colors := make([]int, g.N())
	used := make([]bool, g.MaxDegree()+2)
	for p := 0; p < g.N(); p++ {
		for i := range used {
			used[i] = false
		}
		for _, q := range g.Row(p) {
			if colors[q] > 0 && colors[q] < len(used) {
				used[colors[q]] = true
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colors[p] = c
	}
	return colors
}

// GreedyDistance2Coloring returns a coloring in which every process's
// color is unique within distance 2 (all colors in any closed
// neighborhood are pairwise distinct), using at most Δ²+1 colors.
func GreedyDistance2Coloring(g *Graph) []int {
	colors := make([]int, g.N())
	maxPalette := g.MaxDegree()*g.MaxDegree() + 2
	used := make([]bool, maxPalette+1)
	for p := 0; p < g.N(); p++ {
		for i := range used {
			used[i] = false
		}
		mark := func(q int) {
			if colors[q] > 0 {
				used[colors[q]] = true
			}
		}
		for _, q := range g.Row(p) {
			mark(int(q))
			for _, r := range g.Row(int(q)) {
				if int(r) != p {
					mark(int(r))
				}
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colors[p] = c
	}
	return colors
}

// RandomizedLocalColoring returns a proper distance-1 coloring computed
// in a random process order, yielding varied color assignments across
// seeds while keeping the palette within Δ+1.
func RandomizedLocalColoring(g *Graph, r *rng.Rand) []int {
	colors := make([]int, g.N())
	used := make([]bool, g.MaxDegree()+2)
	for _, p := range r.Perm(g.N()) {
		for i := range used {
			used[i] = false
		}
		for _, q := range g.Row(p) {
			if colors[q] > 0 && colors[q] < len(used) {
				used[colors[q]] = true
			}
		}
		// Collect free colors and pick one at random to diversify.
		var free []int
		for c := 1; c < len(used); c++ {
			if !used[c] {
				free = append(free, c)
			}
		}
		colors[p] = free[r.Intn(len(free))]
	}
	return colors
}

// IsProperColoring reports whether colors is a proper distance-1 coloring
// of g (every edge bichromatic), the paper's "locally identified" premise.
func IsProperColoring(g *Graph, colors []int) bool {
	if len(colors) != g.N() {
		return false
	}
	for p := 0; p < g.N(); p++ {
		for _, q := range g.Row(p) {
			if colors[p] == colors[q] {
				return false
			}
		}
	}
	return true
}

// IsDistance2Coloring reports whether all colors within every closed
// neighborhood are pairwise distinct.
func IsDistance2Coloring(g *Graph, colors []int) bool {
	if !IsProperColoring(g, colors) {
		return false
	}
	for p := 0; p < g.N(); p++ {
		seen := map[int]bool{colors[p]: true}
		for _, q := range g.Row(p) {
			if seen[colors[q]] {
				return false
			}
			seen[colors[q]] = true
		}
	}
	return true
}

// ColorCount returns #C, the number of distinct colors in use (Notation 1
// of the paper).
func ColorCount(colors []int) int {
	set := make(map[int]bool, len(colors))
	for _, c := range colors {
		set[c] = true
	}
	return len(set)
}

// ColorRank returns R(c) for every process: the number of distinct colors
// strictly smaller than the process's color (Notation 1; drives the
// convergence induction of Lemma 4).
func ColorRank(colors []int) []int {
	set := make(map[int]bool, len(colors))
	for _, c := range colors {
		set[c] = true
	}
	distinct := make([]int, 0, len(set))
	for c := range set {
		distinct = append(distinct, c)
	}
	// insertion sort; #C is small.
	for i := 1; i < len(distinct); i++ {
		for j := i; j > 0 && distinct[j-1] > distinct[j]; j-- {
			distinct[j-1], distinct[j] = distinct[j], distinct[j-1]
		}
	}
	rank := make(map[int]int, len(distinct))
	for i, c := range distinct {
		rank[c] = i
	}
	out := make([]int, len(colors))
	for p, c := range colors {
		out[p] = rank[c]
	}
	return out
}

// ValidateLocalIdentifiers returns an error unless colors is a proper
// distance-1 coloring with all colors >= 1.
func ValidateLocalIdentifiers(g *Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("graph: %d colors for %d processes", len(colors), g.N())
	}
	for p, c := range colors {
		if c < 1 {
			return fmt.Errorf("graph: process %d has non-positive color %d", p, c)
		}
	}
	if !IsProperColoring(g, colors) {
		return fmt.Errorf("graph: colors are not a proper local coloring")
	}
	return nil
}
