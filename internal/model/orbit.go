package model

import (
	"fmt"
	"math/bits"
)

// orbitProbe is a reusable engine for the frozen-neighborhood orbit
// exploration behind the silence decision procedure (see CommSilent for
// the soundness argument). The one-shot enabledOrbitSilent allocates a
// visited map and string state keys per probe; with silence checked every
// step that dominated the trial loop, so the simulator keeps one probe
// and reuses its buffers: local states are packed into uint64 keys by
// mixed-radix encoding over the process's variable domains and the orbit
// is tracked in a reused slice. Steady-state probes allocate nothing.
//
// A probe may be reused across processes and configurations of one
// system; it is not safe for concurrent use.
type orbitProbe struct {
	sys *System
	ctx Ctx // reusable evaluation context; own-state rows owned by probe

	comm, internal []int    // current orbit state
	visited        []uint64 // encoded states of the orbit so far

	// encOK[p] caches whether p's local state space fits the 64-bit
	// encoding: 0 unknown, 1 yes, -1 no (fall back to the one-shot path).
	encOK []int8
}

// smallOrbit bounds the reused visited buffer: orbits longer than this
// (without closing or writing communication state) are re-explored on the
// allocating map-backed path, keeping the linear cycle scan cheap.
const smallOrbit = 64

// bind points the probe at sys, reusing buffers when already bound.
func (o *orbitProbe) bind(sys *System) {
	if o.sys == sys {
		return
	}
	o.sys = sys
	wc, wi := sys.CommWidth(), sys.InternalWidth()
	o.comm = resizeInts(o.comm, wc)
	o.internal = resizeInts(o.internal, wi)
	o.ctx = Ctx{
		sys:      sys,
		comm:     make([]int, wc),
		internal: make([]int, wi),
	}
	if cap(o.encOK) >= sys.N() {
		o.encOK = o.encOK[:sys.N()]
		for i := range o.encOK {
			o.encOK[i] = 0
		}
	} else {
		o.encOK = make([]int8, sys.N())
	}
}

func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// encodable reports (and caches) whether p's local state space fits a
// 64-bit mixed-radix encoding. All of the paper's protocols do by a wide
// margin; enormous internal domains fall back to the allocating path.
func (o *orbitProbe) encodable(p int) bool {
	if o.encOK[p] != 0 {
		return o.encOK[p] > 0
	}
	mult := uint64(1)
	ok := true
	for _, doms := range [][]int32{o.sys.commDomainRow(p), o.sys.internalDomainRow(p)} {
		for _, dom := range doms {
			if dom <= 1 {
				continue
			}
			hi, lo := bits.Mul64(mult, uint64(dom))
			if hi != 0 {
				ok = false
				break
			}
			mult = lo
		}
		if !ok {
			break
		}
	}
	if ok {
		o.encOK[p] = 1
	} else {
		o.encOK[p] = -1
	}
	return ok
}

// encode packs the current orbit state into one uint64 (only valid for
// encodable processes).
func (o *orbitProbe) encode(p int) uint64 {
	key, mult := uint64(0), uint64(1)
	cd, id := o.sys.commDomainRow(p), o.sys.internalDomainRow(p)
	for v, val := range o.comm {
		key += uint64(val) * mult
		mult *= uint64(cd[v])
	}
	for v, val := range o.internal {
		key += uint64(val) * mult
		mult *= uint64(id[v])
	}
	return key
}

// enabledOrbitSilent is enabledOrbitSilent (silent.go) on the probe's
// reusable buffers: it decides whether p's frozen-neighborhood orbit from
// cfg ever changes communication state. Verdicts are identical to the
// one-shot path, which it delegates to when the local state space exceeds
// the encoding or the orbit outgrows the reused buffer.
func (o *orbitProbe) enabledOrbitSilent(cfg *Config, p, maxOrbit int) (bool, error) {
	if o.sys.g.Degree(p) == 0 {
		return true, nil // isolated: disabled by definition, orbit closed
	}
	if !o.encodable(p) {
		return enabledOrbitSilent(o.sys, cfg, p, maxOrbit)
	}
	copy(o.comm, cfg.Comm[p])
	copy(o.internal, cfg.Internal[p])
	o.visited = o.visited[:0]

	c := &o.ctx
	c.pre = cfg
	c.p = p
	c.cacheIndex = nil
	c.rand = nil

	actions := o.sys.spec.Actions
	for iter := 0; iter < maxOrbit; iter++ {
		if len(o.visited) >= smallOrbit {
			// Orbit longer than the reused buffer: rare enough that the
			// map-backed re-exploration is the simpler correct answer.
			return enabledOrbitSilent(o.sys, cfg, p, maxOrbit)
		}
		key := o.encode(p)
		for _, seen := range o.visited {
			if seen == key {
				return true, nil // orbit closed without a communication write
			}
		}
		o.visited = append(o.visited, key)

		copy(c.comm, o.comm)
		copy(c.internal, o.internal)
		idx := -1
		for i := range actions {
			c.beginBody()
			if actions[i].Guard(c) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true, nil // disabled: local fixed point
		}
		if actions[idx].Randomized {
			// A Randomized action draws fresh values for communication
			// variables; if one is enabled, some computation changes the
			// communication state with positive probability.
			return false, nil
		}
		if err := o.applyChecked(idx); err != nil {
			return false, err
		}
		if !intsEqual(c.comm, o.comm) {
			return false, nil // deterministic communication write
		}
		copy(o.internal, c.internal)
	}
	return false, fmt.Errorf("orbit exceeded %d states", maxOrbit)
}

// applyChecked runs the action's Apply on the probe context, converting a
// panic (out-of-domain write, randomness drawn without a generator) into
// an error exactly like the one-shot probeApply.
func (o *orbitProbe) applyChecked(action int) (err error) {
	c := &o.ctx
	defer func() {
		c.randAllowed = false
		if rec := recover(); rec != nil {
			err = fmt.Errorf("apply panicked: %v", rec)
		}
	}()
	c.randAllowed = true
	c.beginBody()
	o.sys.spec.Actions[action].Apply(c)
	return nil
}
