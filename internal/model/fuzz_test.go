package model_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/model/ref"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fuzzGraph builds the graph a FuzzSimulatorVsReference input names:
// shape%5 picks a cycle, path, star, 3-wide grid or connected G(n, 0.25)
// drawn from seed shape/5, on n = 2 + size%11 processes for size < 128,
// and on n = size − 64, 64 to 191, above, where selection masks take two
// or three words (a cycle has at least 3, a grid 3 × ⌊n/3⌋).
func fuzzGraph(shape, size uint8) *graph.Graph {
	n := 2 + int(size)%11
	if size >= 128 {
		n = int(size) - 64
	}
	switch shape % 5 {
	case 0:
		return graph.Cycle(max(n, 3))
	case 1:
		return graph.Path(n)
	case 2:
		return graph.Star(n)
	case 3:
		return graph.Grid(3, max(n/3, 1))
	default:
		return graph.RandomConnectedGNP(n, 0.25, rng.New(uint64(shape/5)))
	}
}

// fuzzSystem builds the protocol proto%7 names on g: COLORING, MIS,
// MATCHING, stagingSpec (started from Y = 0 everywhere), the cached-view
// MIS (every neighbor read goes through cache variables in wide internal
// rows), the full-read BFS tree rooted at 0 or the cached-view MATCHING
// (whose cached bodies read back ports through the view below the
// cache), and its initial configuration drawn from seed.
func fuzzSystem(g *graph.Graph, proto uint8, seed uint64) (*model.System, *model.Config, error) {
	var sys *model.System
	var err error
	switch proto % 7 {
	case 0:
		sys, err = engine.Build(g, engine.FamColoring, nil)
	case 1:
		sys, err = engine.Build(g, engine.FamMIS, nil)
	case 2:
		sys, err = engine.Build(g, engine.FamMatching, nil)
	case 3:
		sys, err = model.NewSystem(g, stagingSpec(), nil)
	case 4:
		sys, err = engine.Build(g, engine.FamMISXform, nil)
	case 5:
		sys, err = engine.Build(g, engine.FamBFSTree, nil)
	default:
		sys, err = engine.Build(g, engine.FamMatchingXform, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := model.NewRandomConfig(sys, rng.New(seed))
	if proto%7 == 3 {
		for p := range cfg.N() {
			cfg.SetComm(p, stY, 0)
		}
	}
	return sys, cfg, nil
}

// Operations of a FuzzSimulatorVsReference stream: op = b & 7 of each
// byte b, and arg = b >> 3 its parameter.
const (
	opStep           = 0 // 1 + arg steps, each checked (so are the unnamed codes 6 and 7)
	opRunRounds      = 1 // RunRounds(1 + arg%3)
	opRunUntilSilent = 2 // 16·(1 + arg%8) more steps at most, checking every 1 + arg/8
	opCorrupt        = 3 // randomize 1 + arg%3 processes (then MarkDirty each on the simulator)
	opTopology       = 4 // one valid topology event on a MutableCopy (none on a static system)
	opMarkSuffix     = 5

	// maxFuzzOps bounds the operations run from one input: the fuzzer
	// minimizes every input it keeps in time quadratic in its length.
	maxFuzzOps = 64
)

// FuzzSimulatorVsReference runs model.Simulator and the reference
// simulator ref.Sim in lockstep through one stream of operations: steps,
// stretches of rounds (over which the cycle detectors count and settle),
// runs to silence, corruptions (repaired with MarkDirty on the
// simulator), topology events on a MutableCopy and suffix marks. Each
// side applies every corruption and topology event itself, the reference
// to its own configuration, port lists and domains. After every step and
// every other operation it requires no open window (OpenWindows), so a
// missed settle fails where it was missed; the same configuration, step
// and round counts, selections and verdicts; the tracker's enabled set
// equal to the reference's and its AllEnabled answer to the reference's
// on a set that moves with the stream; SilentNow equal to the
// reference's verdict; the same Selected aggregates (however the replays
// were batched) and CommWrite stream; the same recorder report; and on a
// MutableCopy a valid graph and configuration.
//
// The simulator decides every evaluation with the spec's First where it
// declares one (COLORING, MIS, MATCHING and the BFS tree, whose relax
// statement then takes First's hand-off), and the reference walks the
// guards (model.Evaluate), so each case of those protocols also checks
// First and the hand-off against the guards and the statement on every
// state the stream reaches.
//
// The committed corpus under testdata/fuzz holds the cases of the
// equivalence tests it replaced, one file per system, daemon and seed,
// named after the test, and the replay cases: BFS tree and MATCHING
// under central-random and laziest-fair on a MutableCopy, where
// disabled processes are selected again and again between a
// corruption and a topology event, so counted replays are kept, settled
// early when a neighbor writes, settled as each operation returns and
// invalidated. The topology-ref cases run
// MATCHING, the cached-view MIS and the cached-view MATCHING on a
// MutableCopy through crashes, joins, removals and restorations, so the
// reference's own port rule and domain reduction run on every go test.
// The suffix cases run five protocols to silence and then through a
// dozen RunRounds stretches, so orbits close and their counts are
// applied, before and after a corruption or a topology event. The count
// cases run five protocols under the synchronous and random-subset
// daemons on a MutableCopy through stretches of rounds and runs to
// silence with corruptions and topology events mid-convergence, so
// cycles close before silence, their counts settle early when a
// neighbor writes, and their detectors are forgotten. The sync cases run
// five protocols under the synchronous daemon on a MutableCopy through
// the same kind of stream, so processes leave the live set and rejoin
// it, and windows of both kinds settle when a neighbor writes and as each
// operation returns, before a corruption or a topology event ends them.
// The mask cases run six protocols under the synchronous and
// random-subset daemons on a MutableCopy of 64, 65, 130, 131 and 191
// processes, so selection masks of two and three words, and tails of
// none, one and many bits, run to silence, through rounds past it, three
// corruptions with MarkDirty, two topology events and runs back to
// silence. The list cases run four protocols under the enabled-biased
// daemon, which selects subsets through Select, so steps of the
// per-selection path with several writers are held to the reference.
func FuzzSimulatorVsReference(f *testing.F) {
	f.Add(uint8(3), uint8(7), false, uint8(1), uint8(1), uint64(1), []byte{opRunUntilSilent, opMarkSuffix, opStep | 3<<3, opRunRounds, opCorrupt, opStep})
	f.Fuzz(func(t *testing.T, shape, size uint8, dynamic bool, proto, daemon uint8, seed uint64, ops []byte) {
		g := fuzzGraph(shape, size)
		sys, initial, err := fuzzSystem(g, proto, seed)
		if err != nil {
			t.Skip(err)
		}
		if dynamic {
			sys = sys.MutableCopy()
		}
		name := sched.Names()[int(daemon)%len(sched.Names())]
		simSched, err := sched.ByName(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		refSched, err := sched.ByName(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		simRec, refRec := trace.NewRecorder(sys.N()), trace.NewRecorder(sys.N())
		simLog, refLog := &eventLog{Observer: simRec}, &eventLog{Observer: refRec}
		sim, err := model.NewSimulator(sys, initial, simSched, seed, simLog)
		if err != nil {
			t.Fatal(err)
		}
		naive := ref.NewSim(sys, initial, refSched, seed, refLog)
		mut := newTopoMutator(g, rng.New(rng.Derive(seed, 7)))

		var i, op, arg, checks int
		fatalf := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s on %s (dynamic %v) under %s, op %d (%d, arg %d) at step %d: %s",
				sys.Spec().Name, g.Name(), dynamic, name, i, op, arg, sim.Steps(), fmt.Sprintf(format, args...))
		}
		var enabled []int
		set := bitset.New(sys.N())
		check := func() {
			t.Helper()
			if open := sim.OpenWindows(); open != 0 {
				fatalf("%d windows open after the operation returned", open)
			}
			if !sim.Config().Equal(naive.Config()) {
				fatalf("configurations diverged")
			}
			if sim.Steps() != naive.Steps() || sim.Rounds() != naive.Rounds() {
				fatalf("%d steps, %d rounds; reference %d, %d", sim.Steps(), sim.Rounds(), naive.Steps(), naive.Rounds())
			}
			if dynamic {
				if err := sys.Graph().CheckInvariants(); err != nil {
					fatalf("%v", err)
				}
				if err := sim.Config().Validate(sys); err != nil {
					fatalf("%v", err)
				}
			}
			want := naive.EnabledSet()
			if enabled = sim.Tracker().AppendEnabled(enabled[:0]); !slices.Equal(enabled, want) {
				fatalf("tracker enabled set %v, reference %v", enabled, want)
			}
			set.Clear()
			wantAll := true
			for p := checks % 3; p < sys.N(); p += 3 {
				set.Add(p)
				wantAll = wantAll && slices.Contains(want, p)
			}
			checks++
			if got := sim.Tracker().AllEnabled(set); got != wantAll {
				fatalf("AllEnabled = %v, reference %v", got, wantAll)
			}
			silent, err := sim.SilentNow()
			if err != nil {
				fatalf("SilentNow: %v", err)
			}
			if want := naive.Silent(); silent != want {
				fatalf("SilentNow = %v, reference %v", silent, want)
			}
			simSel, simWrites := simLog.take()
			refSel, refWrites := refLog.take()
			if !maps.Equal(simSel, refSel) {
				fatalf("Selected aggregates differ:\n simulator %v\n reference %v", simSel, refSel)
			}
			if !slices.Equal(simWrites, refWrites) {
				fatalf("CommWrite streams differ:\n simulator %v\n reference %v", simWrites, refWrites)
			}
			if got, want := simRec.Report(), refRec.Report(); !reflect.DeepEqual(got, want) {
				fatalf("recorder reports differ:\n simulator %+v\n reference %+v", got, want)
			}
		}

		for i = 0; i < min(len(ops), maxFuzzOps); i++ {
			op, arg = int(ops[i]&7), int(ops[i]>>3)
			switch op {
			case opRunRounds:
				if name == "enabled-biased" {
					// It never selects a disabled process while another is
					// enabled, so a round may never end.
					k := (1 + arg%3) * sys.N()
					sim.RunSteps(k)
					for range k {
						naive.Step()
					}
				} else {
					sim.RunRounds(1 + arg%3)
					naive.RunRounds(1 + arg%3)
				}
			case opRunUntilSilent:
				maxSteps, every := sim.Steps()+16*(1+arg%8), 1+arg/8
				got, err := sim.RunUntilSilent(maxSteps, every)
				if err != nil {
					fatalf("RunUntilSilent: %v", err)
				}
				if want := naive.RunUntilSilent(maxSteps, every); got != want {
					fatalf("RunUntilSilent = %v, reference %v", got, want)
				}
			case opCorrupt:
				for k := range 1 + arg%3 {
					r := rng.New(rng.Derive(seed, uint64(i*8+k)))
					p := r.Intn(sys.N())
					model.RandomizeProcess(sys, sim.Config(), p, r)
					sim.MarkDirty(p)
					r = rng.New(rng.Derive(seed, uint64(i*8+k)))
					naive.Corrupt(r.Intn(sys.N()), r)
				}
			case opTopology:
				if dynamic {
					ev := mut.next(sys.Graph())
					sim.ApplyTopology(ev, nil)
					naive.ApplyTopology(ev)
				}
			case opMarkSuffix:
				simRec.MarkSuffix()
				refRec.MarkSuffix()
			default:
				for range 1 + arg {
					if got, want := sim.Step(), naive.Step(); !slices.Equal(got, want) {
						fatalf("selected %v, reference %v", got, want)
					}
					check()
				}
				continue
			}
			check()
		}
	})
}
