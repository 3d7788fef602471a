package model

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// CommSilent decides whether cfg is a silent configuration: one from
// which the values of all communication variables are fixed in every
// possible computation (Definition 3 and the "silent configuration"
// notion of Section 2.2).
//
// Decision procedure (sound and complete for this model): for each
// process p, enumerate the deterministic orbit of p's local state under
// the local algorithm with every neighbor's communication state frozen at
// its value in cfg.
//
//   - If some orbit step writes a communication variable with a changed
//     value (or an enabled Randomized action writes a communication
//     variable at all), cfg is not silent: the scheduler that selects
//     only p repeatedly realizes exactly that orbit, so a computation
//     changing communication state exists.
//   - If no orbit ever changes communication state, no computation from
//     cfg can: the first communication change overall would have to be
//     made by some process whose neighbors' communication states were
//     still at their cfg values, and that process's state evolution up to
//     that point is exactly its frozen-neighborhood orbit (its guards
//     depend only on its own state and neighbor communication state).
//
// Orbits are finite because local state spaces are finite; the visited
// set detects the cycle. maxOrbit caps the per-process exploration as a
// defence against enormous internal domains.
func CommSilent(sys *System, cfg *Config) (bool, error) {
	for p := 0; p < sys.N(); p++ {
		silent, err := processOrbitSilent(sys, cfg, p, maxOrbit)
		if err != nil {
			return false, fmt.Errorf("model: silence check at process %d: %w", p, err)
		}
		if !silent {
			return false, nil
		}
	}
	return true, nil
}

// maxOrbit caps the per-process orbit exploration of the silence
// decision procedure.
const maxOrbit = 1 << 16

func processOrbitSilent(sys *System, cfg *Config, p, maxOrbit int) (bool, error) {
	// Fast path: a disabled process is a local fixed point — its orbit is
	// closed at the first state. This avoids the visited-set allocation in
	// the common near-silence case. (Simulator.SilentNow answers this
	// probe from its incremental tracker instead and calls
	// enabledOrbitSilent directly.)
	if EnabledAction(sys, cfg, p) < 0 {
		return true, nil
	}
	return enabledOrbitSilent(sys, cfg, p, maxOrbit)
}

// enabledOrbitSilent explores the frozen-neighborhood orbit of a process
// already known (or suspected) to be enabled. The first orbit iteration
// re-derives enabledness, so calling it on a disabled process is merely
// wasteful, never wrong.
func enabledOrbitSilent(sys *System, cfg *Config, p, maxOrbit int) (bool, error) {
	if sys.g.Degree(p) == 0 {
		return true, nil // isolated: disabled by definition, orbit closed
	}
	// Local scratch state; neighbors are read from cfg, which this probe
	// never mutates.
	comm := append([]int(nil), cfg.commRow(p)...)
	internal := append([]int(nil), cfg.internalRow(p)...)
	visited := make(map[string]bool)

	for iter := 0; iter < maxOrbit; iter++ {
		key := stateKey(comm, internal)
		if visited[key] {
			return true, nil // orbit closed without a communication write
		}
		visited[key] = true

		c := &Ctx{sys: sys, pre: cfg, p: p, nbr: sys.g.Row(p),
			comm:     append([]int(nil), comm...),
			internal: append([]int(nil), internal...),
		}
		idx := -1
		for i := range sys.spec.Actions {
			c.beginBody()
			if sys.spec.Actions[i].Guard(c) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true, nil // disabled: local fixed point
		}
		act := sys.spec.Actions[idx]
		if act.Randomized {
			// A Randomized action draws fresh values for communication
			// variables; if one is enabled, some computation changes the
			// communication state with positive probability, so the
			// configuration is not silent.
			return false, nil
		}
		res, err := probeApply(sys, cfg, p, comm, internal, idx, nil)
		if err != nil {
			return false, err
		}
		if !intsEqual(res.comm, comm) {
			return false, nil // deterministic communication write
		}
		comm, internal = res.comm, res.internal
	}
	return false, fmt.Errorf("orbit exceeded %d states", maxOrbit)
}

type probeResult struct {
	comm, internal []int
}

func probeApply(sys *System, cfg *Config, p int, comm, internal []int, action int, r *rng.Rand) (probeResult, error) {
	c := &Ctx{sys: sys, pre: cfg, p: p, nbr: sys.g.Row(p),
		comm:     append([]int(nil), comm...),
		internal: append([]int(nil), internal...),
		rand:     r,
		inApply:  true,
	}
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("apply panicked: %v", rec)
			}
		}()
		c.beginBody()
		sys.spec.Actions[action].Apply(c)
	}()
	if err != nil {
		return probeResult{}, err
	}
	return probeResult{comm: c.comm, internal: c.internal}, nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func stateKey(comm, internal []int) string {
	var sb strings.Builder
	for _, v := range comm {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	sb.WriteByte('|')
	for _, v := range internal {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}
