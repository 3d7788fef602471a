package experiment

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// eventLog collects events from concurrent workers.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Observe(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// TestEveryRegistryCellEmitsDiagnostics: every cell the registry builds
// comes from engine.NewCell — a campaign cell through the compiler, an
// E13 cell directly — so none can forget core.RunOptions.Events. For an
// at-start and an on-silence state adversary, a churn adversary (the
// regimes of E15-E21, here one campaign each) and for E13 and E15,
// under a collecting observer: each diagnostic lies inside a trial of
// its own cell and carries that trial's Cell, Key and Trial; a trial's
// injection events number what its trial-finish counts; a trial that
// ends silent saw a silence; and every injection and topology firing is
// followed by a recovery before its trial finishes.
func TestEveryRegistryCellEmitsDiagnostics(t *testing.T) {
	t.Parallel()
	// onCampaign runs one disturbance line against the three protocols
	// on the mid-suite graph of E16.
	onCampaign := func(disturbance string) func(Config) error {
		return func(cfg Config) error {
			line, _, err := midSuite(cfg, 4)
			if err != nil {
				return err
			}
			_, _, _, err = runCampaign(cfg, "diagnostics", line+"\nprotocol coloring mis matching\n"+disturbance+"\n")
			return err
		}
	}
	experiment := func(run Runner) func(Config) error {
		return func(cfg Config) error {
			_, err := run(cfg)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func(Config) error
		// injects and churns say which disturbance events must appear.
		injects, churns bool
	}{
		{"fault-at-start", onCampaign("adversary uniform k=2 inject=at-start"), true, false},
		{"fault-on-silence", onCampaign("adversary cluster k=4 inject=on-silence:3"), true, false},
		{"churn", onCampaign("churn rewire k=2 inject=on-silence:2"), false, true},
		{"E13", experiment(E13Transformer), false, false},
		{"E15", experiment(E15FaultContainment), true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			log := &eventLog{}
			if err := tc.run(Config{Seed: 2009, Trials: 2, MaxSteps: 400_000, Quick: true, Parallelism: 2, Observer: log}); err != nil {
				t.Fatal(err)
			}
			// A cell's events come from one worker, in order: split by cell.
			byCell := map[int][]obs.Event{}
			for _, e := range log.events {
				byCell[e.Cell] = append(byCell[e.Cell], e)
			}
			trials, injections, firings := 0, 0, 0
			for cell, events := range byCell {
				var open *obs.Event // the trial-start of the trial in progress
				injected, silences, unrecovered := 0, 0, false
				for i := range events {
					e := &events[i]
					switch e.Kind {
					case obs.KindTrialStart:
						open, injected, silences, unrecovered = e, 0, 0, false
					case obs.KindTrialFinish:
						if injected != e.Count {
							t.Errorf("cell %d trial %d: %d injection events, trial-finish counts %d", cell, e.Trial, injected, e.Count)
						}
						if e.Silent && silences == 0 {
							t.Errorf("cell %d trial %d ended silent without a silence event", cell, e.Trial)
						}
						if unrecovered {
							t.Errorf("cell %d trial %d: a disturbance was not followed by a recovery event", cell, e.Trial)
						}
						open = nil
						trials++
					case obs.KindSilence, obs.KindInjection, obs.KindRecovery, obs.KindTopology:
						if open == nil {
							t.Fatalf("cell %d: %s event outside a trial", cell, e.Kind)
						}
						if e.Key != open.Key || e.Trial != open.Trial {
							t.Errorf("cell %d: %s event tagged (%q, trial %d) inside trial (%q, %d)",
								cell, e.Kind, e.Key, e.Trial, open.Key, open.Trial)
						}
						switch e.Kind {
						case obs.KindSilence:
							silences++
						case obs.KindInjection:
							injected++
							injections++
							unrecovered = true
						case obs.KindTopology:
							firings++
							unrecovered = true
						case obs.KindRecovery:
							unrecovered = false
						}
					}
				}
			}
			if trials == 0 {
				t.Fatal("no trial finished under the observer")
			}
			if tc.injects != (injections > 0) {
				t.Errorf("%d injection events over %d trials, want some: %v", injections, trials, tc.injects)
			}
			if tc.churns != (firings > 0) {
				t.Errorf("%d topology events over %d trials, want some: %v", firings, trials, tc.churns)
			}
		})
	}
}
