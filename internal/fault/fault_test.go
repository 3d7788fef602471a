package fault_test

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
)

// stateOf copies out process p's state: communication variables, then
// internal ones.
func stateOf(sys *model.System, cfg *model.Config, p int) []int {
	out := make([]int, 0, sys.CommWidth()+sys.InternalWidth())
	for v := range sys.CommWidth() {
		out = append(out, cfg.Comm(p, v))
	}
	for v := range sys.InternalWidth() {
		out = append(out, cfg.Internal(p, v))
	}
	return out
}

func testSystems(t *testing.T) []*model.System {
	t.Helper()
	var systems []*model.System
	for _, g := range []*graph.Graph{
		graph.Cycle(9),
		graph.Grid(4, 4),
		graph.RandomConnectedGNP(12, 0.3, rng.New(5)),
	} {
		sys, err := engine.Build(g, engine.FamColoring, nil)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	// A protocol with internal variables, so comm-only vs whole-state
	// corruption differ.
	g := graph.Grid(3, 3)
	matSys, err := engine.Build(g, engine.FamMatching, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(systems, matSys)
}

func allAdversaries(t *testing.T, k int) []fault.Adversary {
	t.Helper()
	var advs []fault.Adversary
	for _, name := range fault.Names() {
		a, err := fault.ByName(name, k)
		if err != nil {
			t.Fatal(err)
		}
		advs = append(advs, a)
	}
	return advs
}

// TestInjectContract: every adversary corrupts exactly min(k, n)
// distinct processes, leaves every value inside its domain, and touches
// no process outside the returned faulted set.
func TestInjectContract(t *testing.T) {
	t.Parallel()
	for _, sys := range testSystems(t) {
		for _, k := range []int{1, 3, sys.N()} {
			for _, adv := range allAdversaries(t, k) {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := model.NewRandomConfig(sys, rng.New(seed^0xABCD))
					before := cfg.Clone()
					adv.Reset(seed)
					faulted := adv.Inject(sys, cfg, nil)

					want := min(k, sys.N())
					if len(faulted) != want {
						t.Fatalf("%s k=%d n=%d: %d faulted ids, want %d", adv.Name(), k, sys.N(), len(faulted), want)
					}
					sorted := append([]int(nil), faulted...)
					slices.Sort(sorted)
					if len(slices.Compact(sorted)) != len(faulted) {
						t.Fatalf("%s: duplicate faulted ids %v", adv.Name(), faulted)
					}
					if err := cfg.Validate(sys); err != nil {
						t.Fatalf("%s: corrupted config out of domain: %v", adv.Name(), err)
					}
					isFaulted := make([]bool, sys.N())
					for _, p := range faulted {
						isFaulted[p] = true
					}
					for p := 0; p < sys.N(); p++ {
						if isFaulted[p] {
							continue
						}
						if !slices.Equal(stateOf(sys, cfg, p), stateOf(sys, before, p)) {
							t.Fatalf("%s: process %d outside the faulted set was mutated", adv.Name(), p)
						}
					}
				}
			}
		}
	}
}

// TestResetMatchesFresh: a reused adversary rewound to a seed corrupts
// exactly like a freshly constructed one — the pooled-reuse contract.
func TestResetMatchesFresh(t *testing.T) {
	t.Parallel()
	sys := testSystems(t)[1]
	for _, name := range fault.Names() {
		reused, err := fault.ByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the reused instance first.
		scratch := model.NewRandomConfig(sys, rng.New(1))
		reused.Reset(1)
		reused.Inject(sys, scratch, nil)

		for seed := uint64(2); seed <= 5; seed++ {
			fresh, err := fault.ByName(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Reset(seed)
			reused.Reset(seed)
			cfgA := model.NewRandomConfig(sys, rng.New(seed))
			cfgB := cfgA.Clone()
			fa := fresh.Inject(sys, cfgA, nil)
			fb := reused.Inject(sys, cfgB, nil)
			if !slices.Equal(fa, fb) {
				t.Fatalf("%s seed %d: fresh faulted %v, reused faulted %v", name, seed, fa, fb)
			}
			if !cfgA.Equal(cfgB) {
				t.Fatalf("%s seed %d: fresh and reused corruptions differ", name, seed)
			}
		}
	}
}

// TestUniformMatchesLegacyStream: the uniform adversary reproduces the
// legacy E15 clone-then-corrupt draw stream exactly — the byte-compat
// guarantee behind the E15 rewiring.
func TestUniformMatchesLegacyStream(t *testing.T) {
	t.Parallel()
	for _, sys := range testSystems(t) {
		for _, k := range []int{1, 2, sys.N() / 2, sys.N()} {
			if k < 1 {
				continue
			}
			for seed := uint64(1); seed <= 4; seed++ {
				base := model.NewRandomConfig(sys, rng.New(seed+100))

				legacy := base.Clone()
				r := rng.New(seed)
				perm := r.Perm(sys.N())
				for _, p := range perm[:k] {
					for v := range sys.CommWidth() {
						legacy.SetComm(p, v, r.Intn(sys.CommDomain(p, v)))
					}
					for v := range sys.InternalWidth() {
						legacy.SetInternal(p, v, r.Intn(sys.InternalDomain(p, v)))
					}
				}

				got := base.Clone()
				adv := fault.NewUniform(k)
				adv.Reset(seed)
				faulted := adv.Inject(sys, got, nil)

				if !got.Equal(legacy) {
					t.Fatalf("n=%d k=%d seed=%d: uniform adversary diverges from the legacy corruption stream", sys.N(), k, seed)
				}
				if !slices.Equal(faulted, perm[:k]) {
					t.Fatalf("n=%d k=%d seed=%d: faulted %v, legacy victims %v", sys.N(), k, seed, faulted, perm[:k])
				}
			}
		}
	}
}

// TestCommOnlyLeavesInternalState: the comm adversary never touches
// internal variables.
func TestCommOnlyLeavesInternalState(t *testing.T) {
	t.Parallel()
	sys := testSystems(t)[3] // matching: has internal variables
	cfg := model.NewRandomConfig(sys, rng.New(9))
	before := cfg.Clone()
	adv := fault.NewCommOnly(sys.N())
	adv.Reset(3)
	adv.Inject(sys, cfg, nil)
	for p := 0; p < sys.N(); p++ {
		for v := range sys.InternalWidth() {
			if cfg.Internal(p, v) != before.Internal(p, v) {
				t.Fatalf("comm adversary mutated internal state of process %d", p)
			}
		}
	}
}

// TestCrashResetZeroes: crash-reset leaves victims in the all-zero
// initial local state.
func TestCrashResetZeroes(t *testing.T) {
	t.Parallel()
	sys := testSystems(t)[3]
	cfg := model.NewRandomConfig(sys, rng.New(11))
	adv := fault.NewCrashReset(3)
	adv.Reset(5)
	for _, p := range adv.Inject(sys, cfg, nil) {
		for v, val := range stateOf(sys, cfg, p) {
			if val != 0 {
				t.Fatalf("crashed process %d variable %d = %d, want 0", p, v, val)
			}
		}
	}
}

// TestClusterBall: the cluster adversary corrupts a connected BFS ball —
// victims come in breadth-first order, so the first is the epicenter,
// every faulted process lies within LastBallRadius of it, and no
// unfaulted process is strictly closer to it than the farthest faulted
// one requires.
func TestClusterBall(t *testing.T) {
	t.Parallel()
	for _, sys := range testSystems(t) {
		g := sys.Graph()
		for _, k := range []int{1, 3, g.N() / 2} {
			if k < 1 {
				continue
			}
			adv := fault.NewCluster(k)
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := model.NewRandomConfig(sys, rng.New(seed))
				adv.Reset(seed)
				faulted := adv.Inject(sys, cfg, nil)
				epi, ball := faulted[0], adv.LastBallRadius()
				dist := g.BFS(epi)
				maxDist := 0
				for _, p := range faulted {
					if dist[p] > maxDist {
						maxDist = dist[p]
					}
				}
				if maxDist != ball {
					t.Fatalf("cluster: LastBallRadius=%d, max epicenter distance of faulted set=%d", ball, maxDist)
				}
				// BFS order means the ball is distance-closed: every
				// process strictly inside the radius is faulted.
				isFaulted := make([]bool, g.N())
				for _, p := range faulted {
					isFaulted[p] = true
				}
				for p := 0; p < g.N(); p++ {
					if dist[p] < ball && !isFaulted[p] {
						t.Fatalf("cluster: process %d at distance %d < ball radius %d not faulted", p, dist[p], ball)
					}
				}
			}
		}
	}
}

// TestScheduleParseRoundTrip: String() output parses back to the same
// schedule, and malformed specs are rejected.
func TestScheduleParseRoundTrip(t *testing.T) {
	t.Parallel()
	for _, s := range []fault.Schedule{
		fault.AtStart(),
		fault.AtStep(100),
		fault.Every(50, 1),
		fault.Every(50, 4),
		fault.OnSilence(1),
		fault.OnSilence(3),
	} {
		got, err := fault.ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", s.String(), err)
		}
		if got.Kind != s.Kind || got.T != s.T || got.Injections() != s.Injections() {
			t.Fatalf("ParseSchedule(%q) = %+v, want %+v", s.String(), got, s)
		}
	}
	for _, bad := range []string{"", "sometimes", "at-step", "at-step:x", "every", "every:0", "on-silence:1:2"} {
		if _, err := fault.ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestScheduleNextStep pins the due-step arithmetic.
func TestScheduleNextStep(t *testing.T) {
	t.Parallel()
	if got := fault.AtStep(100).NextStep(0); got != 100 {
		t.Fatalf("AtStep(100).NextStep(0) = %d", got)
	}
	if got := fault.AtStep(100).NextStep(100); got != -1 {
		t.Fatalf("AtStep(100).NextStep(100) = %d", got)
	}
	if got := fault.Every(50, 4).NextStep(0); got != 50 {
		t.Fatalf("Every(50).NextStep(0) = %d", got)
	}
	if got := fault.Every(50, 4).NextStep(50); got != 100 {
		t.Fatalf("Every(50).NextStep(50) = %d", got)
	}
	if got := fault.Every(50, 4).NextStep(73); got != 100 {
		t.Fatalf("Every(50).NextStep(73) = %d", got)
	}
	for _, s := range []fault.Schedule{fault.AtStart(), fault.OnSilence(2)} {
		if got := s.NextStep(17); got != -1 {
			t.Fatalf("%s.NextStep(17) = %d, want -1", s, got)
		}
	}
	if fault.AtStart().Injections() != 1 || fault.OnSilence(3).Injections() != 3 {
		t.Fatal("Injections() miscounts")
	}
}

// TestContainmentDistances: Begin's multi-source BFS matches the min
// over per-source graph.BFS distances, and Moved folds the max.
func TestContainmentDistances(t *testing.T) {
	t.Parallel()
	g := graph.RandomConnectedGNP(14, 0.25, rng.New(21))
	faulted := []int{2, 7, 11}
	var c fault.Containment
	c.Begin(g, faulted)
	dists := make([][]int, len(faulted))
	for i, s := range faulted {
		dists[i] = g.BFS(s)
	}
	for p := 0; p < g.N(); p++ {
		want := dists[0][p]
		for _, d := range dists[1:] {
			if d[p] < want {
				want = d[p]
			}
		}
		if got := c.Dist(p); got != want {
			t.Fatalf("Dist(%d) = %d, want %d", p, got, want)
		}
	}
	if c.Radius() != 0 {
		t.Fatalf("fresh episode radius %d, want 0", c.Radius())
	}
	c.Moved(faulted[0])
	if c.Radius() != 0 {
		t.Fatalf("radius after faulted move = %d, want 0", c.Radius())
	}
	far, farDist := 0, -1
	for p := 0; p < g.N(); p++ {
		if c.Dist(p) > farDist {
			far, farDist = p, c.Dist(p)
		}
	}
	c.Moved(far)
	if c.Radius() != farDist {
		t.Fatalf("radius after farthest move = %d, want %d", c.Radius(), farDist)
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	t.Parallel()
	if _, err := fault.ByName("bitflip", 1); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	for _, name := range fault.Names() {
		a, err := fault.ByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
}
