package model

import (
	"slices"
	"testing"
)

// aggRead is one neighbor read fed to a readAgg: slot is the variable's
// index in the per-port row (communication variables first, then
// constants).
type aggRead struct{ port, q, slot, bits int }

// naiveAggregate is Definitions 4 and 5 spelled out: the distinct
// neighbors in first-read order, and the bits of every distinct
// (neighbor, slot).
func naiveAggregate(reads []aggRead) (qs []int, bits int) {
	seen := map[[2]int]bool{}
	for _, r := range reads {
		if !slices.Contains(qs, r.q) {
			qs = append(qs, r.q)
		}
		if k := [2]int{r.q, r.slot}; !seen[k] {
			seen[k] = true
			bits += r.bits
		}
	}
	return qs, bits
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
		{"duplicate reads of one variable", []aggRead{{1, 7, comm0, 3}, {1, 7, comm0, 3}, {1, 7, comm0, 3}}},
		{"comm vs const of the same index", []aggRead{{1, 7, comm0, 3}, {1, 7, const0, 5}, {1, 7, const0, 5}}},
		{"two variables of one neighbor", []aggRead{{2, 9, comm0, 3}, {2, 9, comm1, 4}, {2, 9, comm0, 3}}},
		{"two neighbors, interleaved", []aggRead{{1, 7, comm0, 3}, {2, 9, comm0, 2}, {1, 7, comm1, 1}, {2, 9, comm0, 2}}},
		{"a port beyond every earlier one", []aggRead{{1, 7, comm0, 3}, {40, 11, const0, 6}, {40, 11, const0, 6}, {1, 7, comm0, 3}}},
		{"the same reads again", []aggRead{{1, 7, comm0, 3}, {40, 11, const0, 6}}},
	}
	a := &readAgg{slots: 3}
	for _, tc := range cases {
		a.begin()
		for _, r := range tc.reads {
			a.note(r.port, r.q, r.slot, r.bits)
		}
		qs, bits := naiveAggregate(tc.reads)
		if !slices.Equal(a.qs, qs) || a.bits != bits {
			t.Errorf("%s: aggregate = (%v, %d bits), want (%v, %d bits)", tc.name, a.qs, a.bits, qs, bits)
		}
	}
}

// TestReadAggGrowsMidEvaluation: a read behind a port past the tables'
// end must widen them without forgetting what the evaluation in progress
// already counted.
func TestReadAggGrowsMidEvaluation(t *testing.T) {
	t.Parallel()
	a := &readAgg{slots: 2}
	a.begin()
	a.note(1, 5, 0, 3)
	a.note(1, 5, 1, 4)
	ports := len(a.port)
	a.note(ports+3, 6, 1, 2) // grows
	if len(a.port) <= ports+3 || len(a.slot) != len(a.port)*a.slots {
		t.Fatalf("tables not grown: %d ports, %d slots", len(a.port), len(a.slot))
	}
	a.note(1, 5, 0, 3) // duplicates of pre-growth reads
	a.note(1, 5, 1, 4)
	if want := []int{5, 6}; !slices.Equal(a.qs, want) || a.bits != 9 {
		t.Fatalf("aggregate after growth = (%v, %d bits), want (%v, 9 bits)", a.qs, a.bits, want)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.begin()
		for port := 1; port < len(a.port); port++ {
			a.note(port, port, 0, 1)
		}
	}); allocs != 0 {
		t.Fatalf("full-width evaluation allocated %.0f times after growth", allocs)
	}
}

// TestReadAggStampWrap: when the generation counter wraps, stamps
// written 2³² evaluations ago must not read as current.
func TestReadAggStampWrap(t *testing.T) {
	t.Parallel()
	a := &readAgg{slots: 1}
	a.begin() // gen 1
	a.note(1, 5, 0, 3)
	a.gen = ^uint32(0) // as if 2³²-2 evaluations went by
	a.note(2, 6, 0, 3) // stamped with the last generation before the wrap
	a.begin()          // wraps
	if a.gen == 0 {
		t.Fatal("generation 0 is the tables' zero value: every fresh entry would read as counted")
	}
	a.note(1, 5, 0, 3) // stamped 1 before the wrap, and gen is 1 again
	a.note(2, 6, 0, 3)
	if want := []int{5, 6}; !slices.Equal(a.qs, want) || a.bits != 6 {
		t.Fatalf("aggregate after wrap = (%v, %d bits), want (%v, 6 bits)", a.qs, a.bits, want)
	}
}
