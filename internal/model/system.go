package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// System binds a protocol spec to a network: the graph, the per-process
// communication constants, and precomputed variable domains.
//
// The tables are flat stride-indexed arenas: the entry for variable v
// lives at row*width+v, where width is the spec's variable count for
// that kind. A variable's domain is a function of DomainInfo, in which
// only the degree varies from process to process, so the domain tables
// have one row per degree, filled at construction, and process p reads
// the row of its live degree: row d for degree 1..Δ, and row 0, which
// repeats degree 1's so that no domain empties, for an isolated process
// (a crashed one on a dynamic system). The constant and bit-width tables
// have one row per process. Elements are narrowed to int32
// (domains and constants; NewSystem rejects wider domains) and uint8
// (bit widths), so at n = 10⁶ the per-process tables cost a few bytes a
// process, with no slice header per process, and every guard-path
// lookup is an indexed load with no pointer hop.
type System struct {
	g     *graph.Graph
	spec  *Spec
	delta int

	consts []int32 // consts[p*lc+v]

	commDomains     []int32 // commDomains[δ*wc+v]; rows 0..Δ
	internalDomains []int32 // internalDomains[δ*wi+v]; rows 0..Δ

	// Precomputed BitsFor over the domains, one row per process: neighbor
	// reads are the innermost operation of every guard, so the
	// read-instrumentation path looks the width up instead of recomputing
	// it. commBits entries follow refreshDomains under dynamic
	// topologies; constBits is structural and never refreshed.
	commBits  []uint8 // commBits[p*wc+v] = BitsFor(CommDomain(p, v))
	constBits []uint8

	wc, wi, lc int // table strides: len(spec.Comm/Internal/Const)
}

// NewSystem validates and builds a System. consts must have one row per
// process with one value per Const variable (pass nil when the spec has
// no constants).
func NewSystem(g *graph.Graph, spec *Spec, consts [][]int) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("model: system needs at least 2 processes, have %d", g.N())
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("model: the paper's model assumes connected topologies")
	}
	if g.MinDegree() < 1 {
		return nil, fmt.Errorf("model: every process needs at least one neighbor")
	}
	if len(spec.Const) == 0 {
		if len(consts) != 0 && len(consts) != g.N() {
			return nil, fmt.Errorf("model: consts provided for a constant-free spec")
		}
	} else {
		if len(consts) != g.N() {
			return nil, fmt.Errorf("model: %d const rows for %d processes", len(consts), g.N())
		}
	}

	n := g.N()
	s := &System{
		g: g, spec: spec, delta: g.MaxDegree(),
		wc: len(spec.Comm), wi: len(spec.Internal), lc: len(spec.Const),
	}
	var err error
	if s.commDomains, err = degreeDomains("comm", spec.Comm, n, s.delta); err != nil {
		return nil, err
	}
	if s.internalDomains, err = degreeDomains("internal", spec.Internal, n, s.delta); err != nil {
		return nil, err
	}
	s.commBits = make([]uint8, n*s.wc)
	s.constBits = make([]uint8, n*s.lc)
	s.consts = make([]int32, n*s.lc)
	for p := 0; p < n; p++ {
		s.refreshDomains(p)
		if len(spec.Const) == 0 {
			continue
		}
		if len(consts[p]) != len(spec.Const) {
			return nil, fmt.Errorf("model: process %d has %d constants, want %d", p, len(consts[p]), len(spec.Const))
		}
		// Constant domains are read only here, to check the constants.
		info := DomainInfo{N: n, Delta: s.delta, Degree: g.Degree(p)}
		for v, vs := range spec.Const {
			d := vs.Domain(info)
			if d > math.MaxInt32 {
				return nil, fmt.Errorf("model: const var %s domain %d at process %d exceeds int32", vs.Name, d, p)
			}
			val := consts[p][v]
			if val < 0 || val >= d {
				return nil, fmt.Errorf("model: process %d constant %s=%d outside domain [0,%d)", p, vs.Name, val, d)
			}
			s.consts[p*s.lc+v] = int32(val)
			s.constBits[p*s.lc+v] = uint8(BitsFor(d))
		}
	}
	return s, nil
}

// degreeDomains evaluates the domains of vars at every degree 1..delta
// of an n-process system into a table of one row per degree, row 0
// repeating degree 1's.
func degreeDomains(kind string, vars []VarSpec, n, delta int) ([]int32, error) {
	w := len(vars)
	table := make([]int32, (delta+1)*w)
	for deg := 1; deg <= delta; deg++ {
		info := DomainInfo{N: n, Delta: delta, Degree: deg}
		for v, vs := range vars {
			d := vs.Domain(info)
			if d < 1 {
				return nil, fmt.Errorf("model: %s var %s has empty domain at degree %d", kind, vs.Name, deg)
			}
			if d > math.MaxInt32 {
				return nil, fmt.Errorf("model: %s var %s domain %d at degree %d exceeds int32", kind, vs.Name, d, deg)
			}
			table[deg*w+v] = int32(d)
		}
	}
	copy(table[:w], table[w:2*w])
	return table, nil
}

// Graph returns the network.
func (s *System) Graph() *graph.Graph { return s.g }

// Spec returns the protocol spec.
func (s *System) Spec() *Spec { return s.spec }

// N returns the number of processes.
func (s *System) N() int { return s.g.N() }

// Delta returns Δ, the maximum degree.
func (s *System) Delta() int { return s.delta }

// Const returns the value of constant v at process p.
func (s *System) Const(p, v int) int {
	return int(s.consts[p*s.lc+v])
}

// CommDomain returns the domain size of communication variable v at p.
func (s *System) CommDomain(p, v int) int { return int(s.commDomainRow(p)[v]) }

// InternalDomain returns the domain size of internal variable v at p.
func (s *System) InternalDomain(p, v int) int { return int(s.internalDomainRow(p)[v]) }

// commDomainRow and internalDomainRow return process p's domain row, the
// row of its live degree, cut with its capacity.
func (s *System) commDomainRow(p int) []int32 {
	lo := s.g.Degree(p) * s.wc
	return s.commDomains[lo : lo+s.wc : lo+s.wc]
}

func (s *System) internalDomainRow(p int) []int32 {
	lo := s.g.Degree(p) * s.wi
	return s.internalDomains[lo : lo+s.wi : lo+s.wi]
}

// commBit returns the precomputed BitsFor(CommDomain(q, v)) — the
// per-read bit count charged by the instrumentation path.
func (s *System) commBit(q, v int) int { return int(s.commBits[q*s.wc+v]) }

// constBit is commBit for communication constants.
func (s *System) constBit(q, v int) int { return int(s.constBits[q*s.lc+v]) }

// CommWidth returns the number of communication variables per process
// (the row width of the flat configuration layout).
func (s *System) CommWidth() int { return len(s.spec.Comm) }

// InternalWidth returns the number of internal variables per process.
func (s *System) InternalWidth() int { return len(s.spec.Internal) }

// Config is an instance of the states of all processes (paper §2). The
// communication configuration is the comm part alone. The layout (see
// the package comment's "State layout") is private: outside this package
// a Config is read and written one value at a time through N, Comm,
// SetComm, Internal and SetInternal, as ints. Values are stored as
// int32: NewSystem rejects any domain above 2³¹ − 1, so every in-domain
// value fits, and a value costs 4 B instead of 8. A trial keeps one
// configuration, not two: the runner hands its live buffer over as the
// result's final configuration instead of copying it.
type Config struct {
	n, wc, wi int
	comm      []int32 // comm[p*wc+v]
	internal  []int32 // internal[p*wi+v]
}

// newConfig returns the all-zeroes configuration of n processes with wc
// communication and wi internal variables each. The arrays' capacity is
// their length, which the row bounds below rely on.
func newConfig(n, wc, wi int) *Config {
	return &Config{n: n, wc: wc, wi: wi, comm: make([]int32, n*wc), internal: make([]int32, n*wi)}
}

// NewZeroConfig returns the all-zeroes configuration.
func NewZeroConfig(s *System) *Config { return newConfig(s.N(), s.wc, s.wi) }

// N returns the number of processes.
func (c *Config) N() int { return c.n }

// commRow and internalRow return process p's stretch of the flat
// arrays, cut with its capacity: an index past the row panics on the
// slice bound instead of reading process p+1, and so does a p outside
// [0, n).
func (c *Config) commRow(p int) []int32 {
	lo, hi := p*c.wc, p*c.wc+c.wc
	return c.comm[lo:hi:hi]
}

func (c *Config) internalRow(p int) []int32 {
	lo, hi := p*c.wi, p*c.wi+c.wi
	return c.internal[lo:hi:hi]
}

// narrow stores an accessor's value as the int32 it is kept as. A value
// outside int32 lies outside every domain NewSystem accepts; it panics
// here rather than wrap into one that Validate would pass.
func narrow(x int) int32 {
	if x != int(int32(x)) {
		panic(fmt.Sprintf("model: value %d outside int32", x))
	}
	return int32(x)
}

// Comm returns communication variable v of process p.
func (c *Config) Comm(p, v int) int { return int(c.commRow(p)[v]) }

// SetComm assigns communication variable v of process p.
func (c *Config) SetComm(p, v, x int) { c.commRow(p)[v] = narrow(x) }

// Internal returns internal variable v of process p.
func (c *Config) Internal(p, v int) int { return int(c.internalRow(p)[v]) }

// SetInternal assigns internal variable v of process p.
func (c *Config) SetInternal(p, v, x int) { c.internalRow(p)[v] = narrow(x) }

// NewRandomConfig draws a configuration uniformly at random from the full
// state space — the adversarial "arbitrary initial configuration" of
// self-stabilization.
func NewRandomConfig(s *System, r *rng.Rand) *Config {
	c := NewZeroConfig(s)
	RandomizeConfig(s, c, r)
	return c
}

// RandomizeConfig overwrites cfg in place with a configuration drawn
// uniformly at random from the full state space: NewRandomConfig without
// the allocation. cfg must have this system's shape (e.g. come from
// NewZeroConfig). Values are drawn in exactly NewRandomConfig's order, so
// both paths produce identical configurations from identical streams.
func RandomizeConfig(s *System, cfg *Config, r *rng.Rand) {
	for p := 0; p < s.N(); p++ {
		RandomizeProcess(s, cfg, p, r)
	}
}

// RandomizeProcess redraws the whole state of process p uniformly over
// its domains: communication variables first, then internal ones, one
// Intn each. It is the unit both RandomizeConfig and the transient-fault
// adversaries are built from, so their streams cannot drift apart.
func RandomizeProcess(s *System, cfg *Config, p int, r *rng.Rand) {
	row, doms := cfg.commRow(p), s.commDomainRow(p)
	for v := range row {
		row[v] = int32(r.Intn(int(doms[v])))
	}
	row, doms = cfg.internalRow(p), s.internalDomainRow(p)
	for v := range row {
		row[v] = int32(r.Intn(int(doms[v])))
	}
}

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	out := newConfig(c.n, c.wc, c.wi)
	copy(out.comm, c.comm)
	copy(out.internal, c.internal)
	return out
}

// CopyFrom overwrites c with d's values, reusing c's storage when the
// shapes match and rebuilding it (to d's shape) otherwise. The result
// never aliases d's memory. It is the buffer-reuse counterpart of Clone:
// the trial pipeline copies configurations into long-lived buffers instead
// of allocating fresh ones.
func (c *Config) CopyFrom(d *Config) {
	if c.n != d.n || c.wc != d.wc || c.wi != d.wi {
		*c = *d.Clone()
		return
	}
	copy(c.comm, d.comm)
	copy(c.internal, d.internal)
}

// Equal reports whether both the communication and internal parts match.
func (c *Config) Equal(d *Config) bool {
	return c.CommEqual(d) && slices.Equal(c.internal, d.internal)
}

// CommEqual reports whether the communication configurations match
// (the notion under which silence is defined).
func (c *Config) CommEqual(d *Config) bool {
	return c.n == d.n && slices.Equal(c.comm, d.comm)
}

// Fits reports whether c has s's shape: as many processes, and as many
// communication and internal variables per process. A configuration
// that fits can be filled for s in place (RandomizeConfig, CopyFrom
// without a rebuild).
func (c *Config) Fits(s *System) bool { return c.n == s.N() && c.wc == s.wc && c.wi == s.wi }

// Validate checks that every value lies in its domain.
func (c *Config) Validate(s *System) error {
	if !c.Fits(s) {
		return fmt.Errorf("model: config shape %d×(%d+%d), system is %d×(%d+%d)",
			c.n, c.wc, c.wi, s.N(), s.wc, s.wi)
	}
	for p := 0; p < c.n; p++ {
		doms := s.commDomainRow(p)
		for v, val := range c.commRow(p) {
			if val < 0 || val >= doms[v] {
				return fmt.Errorf("model: process %d comm %s=%d outside [0,%d)",
					p, s.spec.Comm[v].Name, val, doms[v])
			}
		}
		doms = s.internalDomainRow(p)
		for v, val := range c.internalRow(p) {
			if val < 0 || val >= doms[v] {
				return fmt.Errorf("model: process %d internal %s=%d outside [0,%d)",
					p, s.spec.Internal[v].Name, val, doms[v])
			}
		}
	}
	return nil
}
