package model_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// wideTop is the largest value of a 2³¹ − 1 domain but one: it needs
// all 31 value bits of an int32, so any narrower or sign-losing store
// changes it.
const wideTop = math.MaxInt32 - 1

// wideSpec has one communication and one internal variable over the
// widest domain NewSystem accepts. A process first writes wideTop to
// both; once its neighbor behind port 1 shows wideTop too it keeps
// flipping its internal variable between wideTop and wideTop − 1, an
// internal-only orbit of period 2, so the silent phase runs on counts on
// closed cycles.
func wideSpec(domain int) *model.Spec {
	return &model.Spec{
		Name:     "WIDE",
		Comm:     []model.VarSpec{{Name: "X", Domain: model.FixedDomain(domain)}},
		Internal: []model.VarSpec{{Name: "Y", Domain: model.FixedDomain(domain)}},
		Actions: []model.Action{
			{
				Name:  "write",
				Guard: func(c *model.Ctx) bool { return c.Comm(0) != wideTop },
				Apply: func(c *model.Ctx) {
					c.SetComm(0, wideTop)
					c.SetInternal(0, wideTop)
				},
			},
			{
				Name:  "flip",
				Guard: func(c *model.Ctx) bool { return c.NeighborComm(1, 0) == wideTop },
				Apply: func(c *model.Ctx) { c.SetInternal(0, 2*wideTop-1-c.Internal(0)) },
			},
		},
	}
}

// TestInt32Narrowing: Config keeps its values as int32, so values near
// the top of a 2³¹ − 1 domain must come through every path that stores
// or copies them unchanged — the accessors, Validate, Clone, CopyFrom, a
// committed step, counts applied on closed cycles and RandomizeConfig —
// while a domain of 2³¹ is still refused and a value outside int32 is
// not wrapped into range.
func TestInt32Narrowing(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := model.NewSystem(g, wideSpec(math.MaxInt32+1), nil); err == nil || !strings.Contains(err.Error(), "exceeds int32") {
		t.Fatalf("NewSystem accepted a domain of 2³¹: err = %v", err)
	}
	sys, err := model.NewSystem(g, wideSpec(math.MaxInt32), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N()

	cfg := model.NewZeroConfig(sys)
	cfg.SetComm(0, 0, wideTop)
	cfg.SetInternal(0, 0, wideTop)
	cfg.SetInternal(1, 0, wideTop-1)
	if err := cfg.Validate(sys); err != nil {
		t.Fatal(err)
	}
	want := []int{wideTop, wideTop, 0, wideTop - 1}
	check := func(at string, c *model.Config) {
		t.Helper()
		if got := []int{c.Comm(0, 0), c.Internal(0, 0), c.Comm(1, 0), c.Internal(1, 0)}; !slices.Equal(got, want) {
			t.Fatalf("%s: values %v, want %v", at, got, want)
		}
	}
	check("SetComm/SetInternal", cfg)
	check("Clone", cfg.Clone())
	dst := model.NewZeroConfig(sys)
	dst.CopyFrom(cfg)
	check("CopyFrom", dst)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetComm stored 2³¹ + 1 instead of panicking")
			}
		}()
		dst.SetComm(2, 0, math.MaxInt32+2)
	}()

	sim, err := model.NewSimulator(sys, cfg, sched.NewSynchronous(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step() // every process but 0 writes wideTop; 0 waits for its neighbor
	live := sim.Config()
	for p := 0; p < n; p++ {
		if got := live.Comm(p, 0); got != wideTop {
			t.Fatalf("committed step: X.%d = %d, want %d", p, got, wideTop)
		}
	}
	if silent, err := sim.RunUntilSilent(10, 1); err != nil || !silent {
		t.Fatalf("RunUntilSilent = %v, %v; want silent", silent, err)
	}
	// Silent: from here every selection is a flip counted on its cycle.
	prev := make([]int, n)
	for p := range prev {
		prev[p] = live.Internal(p, 0)
	}
	for step := 0; step < 6; step++ {
		sim.Step()
		for p := 0; p < n; p++ {
			got := live.Internal(p, 0)
			if got != 2*wideTop-1-prev[p] || live.Comm(p, 0) != wideTop {
				t.Fatalf("silent step %d: process %d at (X, Y) = (%d, %d), want (%d, %d)",
					step, p, live.Comm(p, 0), got, wideTop, 2*wideTop-1-prev[p])
			}
			prev[p] = got
		}
	}
	if err := live.Validate(sys); err != nil {
		t.Fatal(err)
	}

	r, draws := rng.New(9), rng.New(9)
	model.RandomizeConfig(sys, dst, r)
	high := false
	for p := 0; p < n; p++ {
		wc, wi := draws.Intn(math.MaxInt32), draws.Intn(math.MaxInt32)
		if dst.Comm(p, 0) != wc || dst.Internal(p, 0) != wi {
			t.Fatalf("RandomizeConfig: process %d holds (%d, %d), the stream drew (%d, %d)",
				p, dst.Comm(p, 0), dst.Internal(p, 0), wc, wi)
		}
		high = high || wc > math.MaxInt32/2 || wi > math.MaxInt32/2
	}
	if !high {
		t.Fatal("no drawn value above 2³⁰: the seed does not exercise the top half of the domain")
	}
	if err := dst.Validate(sys); err != nil {
		t.Fatal(err)
	}
}
