package model

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// aggRead is one neighbor read fed to a readAgg: slot is the variable's
// index in the per-port row (communication variables first, then
// constants).
type aggRead struct{ port, slot, bits int }

// aggHub is the process the aggregator tests read from: the hub of a
// 41-star, with 40 ports.
const aggHub = 0

// aggGraph is the graph the aggregator tests read from.
var aggGraph = graph.Star(41)

// naiveAggregate is Definitions 4 and 5 spelled out: the base arcs of the
// distinct neighbors in first-read order, each its neighbor's index in
// the hub's base row past RowStart, and the bits of every distinct
// (neighbor, slot).
func naiveAggregate(reads []aggRead) (arcs []int, bits int) {
	g := aggGraph
	seen := map[[2]int]bool{}
	for _, r := range reads {
		q := g.Neighbor(aggHub, r.port)
		if a := g.RowStart(aggHub) + slices.Index(g.BaseRow(aggHub), int32(q)); !slices.Contains(arcs, a) {
			arcs = append(arcs, a)
		}
		if k := [2]int{q, r.slot}; !seen[k] {
			seen[k] = true
			bits += r.bits
		}
	}
	return arcs, bits
}

// TestReadAgg drives the aggregator with read sequences and checks each
// evaluation against the naive fold, on one aggregator reused across
// cases so stamps of earlier evaluations are there to leak.
func TestReadAgg(t *testing.T) {
	t.Parallel()
	const comm0, comm1, const0 = 0, 1, 2 // two comm variables, one constant
	cases := []struct {
		name  string
		reads []aggRead
	}{
		{"no reads", nil},
		{"duplicate reads of one variable", []aggRead{{1, comm0, 3}, {1, comm0, 3}, {1, comm0, 3}}},
		{"comm vs const of the same index", []aggRead{{1, comm0, 3}, {1, const0, 5}, {1, const0, 5}}},
		{"two variables of one neighbor", []aggRead{{2, comm0, 3}, {2, comm1, 4}, {2, comm0, 3}}},
		{"two neighbors, interleaved", []aggRead{{1, comm0, 3}, {2, comm0, 2}, {1, comm1, 1}, {2, comm0, 2}}},
		{"a port beyond every earlier one", []aggRead{{1, comm0, 3}, {40, const0, 6}, {40, const0, 6}, {1, comm0, 3}}},
		{"the same reads again", []aggRead{{1, comm0, 3}, {40, const0, 6}}},
	}
	a := &readAgg{slots: 3, g: aggGraph}
	for _, tc := range cases {
		a.begin(aggHub)
		for _, r := range tc.reads {
			a.note(r.port, r.slot, r.bits)
		}
		arcs, bits := naiveAggregate(tc.reads)
		if !slices.Equal(a.arcs, arcs) || a.bits != bits {
			t.Errorf("%s: aggregate = (%v, %d bits), want (%v, %d bits)", tc.name, a.arcs, a.bits, arcs, bits)
		}
	}
}

// TestReadAggGrowsMidEvaluation: a read behind a port past the tables'
// end must widen them without forgetting what the evaluation in progress
// already counted.
func TestReadAggGrowsMidEvaluation(t *testing.T) {
	t.Parallel()
	a := &readAgg{slots: 2, g: aggGraph}
	a.begin(aggHub)
	a.note(1, 0, 3)
	a.note(1, 1, 4)
	ports := len(a.port)
	a.note(ports+3, 1, 2) // grows
	if len(a.port) <= ports+3 || len(a.slot) != len(a.port)*a.slots {
		t.Fatalf("tables not grown: %d ports, %d slots", len(a.port), len(a.slot))
	}
	a.note(1, 0, 3) // duplicates of pre-growth reads
	a.note(1, 1, 4)
	if want := []int{0, ports + 2}; !slices.Equal(a.arcs, want) || a.bits != 9 {
		t.Fatalf("aggregate after growth = (%v, %d bits), want (%v, 9 bits)", a.arcs, a.bits, want)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.begin(aggHub)
		for port := 1; port < len(a.port); port++ {
			a.note(port, 0, 1)
		}
	}); allocs != 0 {
		t.Fatalf("full-width evaluation allocated %.0f times after growth", allocs)
	}
}

// TestReadAggStampWrap: when the generation counter wraps, stamps
// written 2³² evaluations ago must not read as current.
func TestReadAggStampWrap(t *testing.T) {
	t.Parallel()
	a := &readAgg{slots: 1, g: aggGraph}
	a.begin(aggHub) // gen 1
	a.note(1, 0, 3)
	a.gen = ^uint32(0) // as if 2³²-2 evaluations went by
	a.note(2, 0, 3)    // stamped with the last generation before the wrap
	a.begin(aggHub)    // wraps
	if a.gen == 0 {
		t.Fatal("generation 0 is the tables' zero value: every fresh entry would read as counted")
	}
	a.note(1, 0, 3) // stamped 1 before the wrap, and gen is 1 again
	a.note(2, 0, 3)
	if want := []int{0, 1}; !slices.Equal(a.arcs, want) || a.bits != 6 {
		t.Fatalf("aggregate after wrap = (%v, %d bits), want (%v, 6 bits)", a.arcs, a.bits, want)
	}
}
