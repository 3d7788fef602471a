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

// ColorCount returns #C, the number of distinct colors in use (Notation 1
// of the paper).
func ColorCount(colors []int) int {
	set := make(map[int]bool, len(colors))
	for _, c := range colors {
		set[c] = true
	}
	return len(set)
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
