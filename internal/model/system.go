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
// The per-process tables are flat stride-indexed arenas: process p's
// entry for variable v lives at p*width+v, where width is the spec's
// variable count for that kind. Elements are narrowed to int32 (domains
// and constants; NewSystem rejects wider domains) and uint8 (bit
// widths), so at n = 10⁶ the tables cost a few megabytes, with no slice
// header per process, and every guard-path lookup is one indexed load
// with no pointer hop.
type System struct {
	g     *graph.Graph
	spec  *Spec
	delta int

	consts []int32 // consts[p*lc+v]

	commDomains     []int32 // commDomains[p*wc+v]
	internalDomains []int32 // internalDomains[p*wi+v]
	constDomains    []int32 // constDomains[p*lc+v]

	// Precomputed BitsFor over the domain tables: neighbor reads are the
	// innermost operation of every guard, so the read-instrumentation
	// path looks the width up instead of recomputing it. commBits
	// entries follow refreshDomains under dynamic topologies; constBits
	// is structural and never refreshed.
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
	s.commDomains = make([]int32, n*s.wc)
	s.internalDomains = make([]int32, n*s.wi)
	s.constDomains = make([]int32, n*s.lc)
	s.commBits = make([]uint8, n*s.wc)
	s.constBits = make([]uint8, n*s.lc)
	s.consts = make([]int32, n*s.lc)
	for p := 0; p < n; p++ {
		info := DomainInfo{N: n, Delta: s.delta, Degree: g.Degree(p)}
		for v, vs := range spec.Comm {
			d := vs.Domain(info)
			if d < 1 {
				return nil, fmt.Errorf("model: comm var %s has empty domain at process %d", vs.Name, p)
			}
			if d > math.MaxInt32 {
				return nil, fmt.Errorf("model: comm var %s domain %d at process %d exceeds int32", vs.Name, d, p)
			}
			s.commDomains[p*s.wc+v] = int32(d)
			s.commBits[p*s.wc+v] = uint8(BitsFor(d))
		}
		for v, vs := range spec.Internal {
			d := vs.Domain(info)
			if d < 1 {
				return nil, fmt.Errorf("model: internal var %s has empty domain at process %d", vs.Name, p)
			}
			if d > math.MaxInt32 {
				return nil, fmt.Errorf("model: internal var %s domain %d at process %d exceeds int32", vs.Name, d, p)
			}
			s.internalDomains[p*s.wi+v] = int32(d)
		}
		for v, vs := range spec.Const {
			d := vs.Domain(info)
			if d > math.MaxInt32 {
				return nil, fmt.Errorf("model: const var %s domain %d at process %d exceeds int32", vs.Name, d, p)
			}
			s.constDomains[p*s.lc+v] = int32(d)
			s.constBits[p*s.lc+v] = uint8(BitsFor(d))
		}
		if len(spec.Const) > 0 {
			if len(consts[p]) != len(spec.Const) {
				return nil, fmt.Errorf("model: process %d has %d constants, want %d", p, len(consts[p]), len(spec.Const))
			}
			for v, val := range consts[p] {
				if val < 0 || val >= int(s.constDomains[p*s.lc+v]) {
					return nil, fmt.Errorf("model: process %d constant %s=%d outside domain [0,%d)",
						p, spec.Const[v].Name, val, s.constDomains[p*s.lc+v])
				}
				s.consts[p*s.lc+v] = int32(val)
			}
		}
	}
	return s, nil
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
func (s *System) CommDomain(p, v int) int { return int(s.commDomains[p*s.wc+v]) }

// InternalDomain returns the domain size of internal variable v at p.
func (s *System) InternalDomain(p, v int) int { return int(s.internalDomains[p*s.wi+v]) }

// ConstDomain returns the domain size of constant v at p.
func (s *System) ConstDomain(p, v int) int { return int(s.constDomains[p*s.lc+v]) }

// commDomainRow and internalDomainRow return process p's stretch of the
// flat domain tables, for call sites that walk a whole row.
func (s *System) commDomainRow(p int) []int32 { return s.commDomains[p*s.wc : (p+1)*s.wc] }

func (s *System) internalDomainRow(p int) []int32 { return s.internalDomains[p*s.wi : (p+1)*s.wi] }

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

// CommOffset returns the offset of process p's communication row in the
// flat backing array of a Config for this system.
func (s *System) CommOffset(p int) int { return p * len(s.spec.Comm) }

// InternalOffset returns the offset of process p's internal row in the
// flat backing array of a Config for this system.
func (s *System) InternalOffset(p int) int { return p * len(s.spec.Internal) }

// Config is an instance of the states of all processes (paper §2). The
// communication configuration is the Comm part alone.
//
// Storage is struct-of-arrays: all communication values live in one flat
// []int (likewise internal values), and Comm[p]/Internal[p] are row views
// into it, so Clone/Equal/CommEqual are single copy/slices.Equal calls
// and a neighborhood scan walks contiguous memory. Process p's row starts
// at offset p×arity (see System.CommOffset). Callers may mutate values
// through the row views but must never replace a row slice itself.
type Config struct {
	// Comm[p][v] is communication variable v of process p (a view into
	// the flat backing array).
	Comm [][]int
	// Internal[p][v] is internal variable v of process p (a view into
	// the flat backing array).
	Internal [][]int

	commData     []int // flat backing: Comm[p] = commData[p*wc:(p+1)*wc]
	internalData []int
}

// newFlatConfig builds an all-zero flat-layout configuration with n
// processes, wc communication variables and wi internal variables each.
func newFlatConfig(n, wc, wi int) *Config {
	c := &Config{
		Comm:         make([][]int, n),
		Internal:     make([][]int, n),
		commData:     make([]int, n*wc),
		internalData: make([]int, n*wi),
	}
	for p := 0; p < n; p++ {
		c.Comm[p] = c.commData[p*wc : (p+1)*wc : (p+1)*wc]
		c.Internal[p] = c.internalData[p*wi : (p+1)*wi : (p+1)*wi]
	}
	return c
}

// flat reports whether the configuration uses the flat backing layout
// (configurations assembled field-by-field by external code do not).
func (c *Config) flat() bool { return c.commData != nil && c.internalData != nil }

// NewZeroConfig returns the all-zeroes configuration.
func NewZeroConfig(s *System) *Config {
	return newFlatConfig(s.N(), len(s.spec.Comm), len(s.spec.Internal))
}

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
		cd, id := s.commDomainRow(p), s.internalDomainRow(p)
		for v := range cfg.Comm[p] {
			cfg.Comm[p][v] = r.Intn(int(cd[v]))
		}
		for v := range cfg.Internal[p] {
			cfg.Internal[p][v] = r.Intn(int(id[v]))
		}
	}
}

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	if c.flat() {
		n := len(c.Comm)
		wc, wi := 0, 0
		if n > 0 {
			wc, wi = len(c.Comm[0]), len(c.Internal[0])
		}
		out := newFlatConfig(n, wc, wi)
		copy(out.commData, c.commData)
		copy(out.internalData, c.internalData)
		return out
	}
	// Hand-assembled layout: preserve the row shape as-is.
	out := &Config{Comm: make([][]int, len(c.Comm)), Internal: make([][]int, len(c.Internal))}
	for p := range c.Comm {
		out.Comm[p] = append([]int(nil), c.Comm[p]...)
	}
	for p := range c.Internal {
		out.Internal[p] = append([]int(nil), c.Internal[p]...)
	}
	return out
}

// CopyFrom overwrites c with d's values, reusing c's backing storage when
// the shapes match and rebuilding it (to d's shape) otherwise. The result
// never aliases d's memory. It is the buffer-reuse counterpart of Clone:
// the trial pipeline copies configurations into long-lived buffers instead
// of allocating fresh ones.
func (c *Config) CopyFrom(d *Config) {
	if c.flat() && d.flat() &&
		len(c.Comm) == len(d.Comm) &&
		len(c.commData) == len(d.commData) &&
		len(c.internalData) == len(d.internalData) {
		copy(c.commData, d.commData)
		copy(c.internalData, d.internalData)
		return
	}
	if sameShape(c.Comm, d.Comm) && sameShape(c.Internal, d.Internal) {
		for p := range d.Comm {
			copy(c.Comm[p], d.Comm[p])
		}
		for p := range d.Internal {
			copy(c.Internal[p], d.Internal[p])
		}
		return
	}
	*c = *d.Clone()
}

func sameShape(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether both the communication and internal parts match.
func (c *Config) Equal(d *Config) bool {
	if !c.CommEqual(d) {
		return false
	}
	if c.flat() && d.flat() && len(c.Internal) == len(d.Internal) {
		return slices.Equal(c.internalData, d.internalData)
	}
	return slices2Equal(c.Internal, d.Internal)
}

// CommEqual reports whether the communication configurations match
// (the notion under which silence is defined).
func (c *Config) CommEqual(d *Config) bool {
	if c.flat() && d.flat() && len(c.Comm) == len(d.Comm) {
		return slices.Equal(c.commData, d.commData)
	}
	return slices2Equal(c.Comm, d.Comm)
}

func slices2Equal(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Validate checks that every value lies in its domain.
func (c *Config) Validate(s *System) error {
	if len(c.Comm) != s.N() || len(c.Internal) != s.N() {
		return fmt.Errorf("model: config size mismatch")
	}
	for p := 0; p < s.N(); p++ {
		if len(c.Comm[p]) != len(s.spec.Comm) || len(c.Internal[p]) != len(s.spec.Internal) {
			return fmt.Errorf("model: config row %d has wrong arity", p)
		}
		for v, val := range c.Comm[p] {
			if val < 0 || val >= s.CommDomain(p, v) {
				return fmt.Errorf("model: process %d comm %s=%d outside [0,%d)",
					p, s.spec.Comm[v].Name, val, s.CommDomain(p, v))
			}
		}
		for v, val := range c.Internal[p] {
			if val < 0 || val >= s.InternalDomain(p, v) {
				return fmt.Errorf("model: process %d internal %s=%d outside [0,%d)",
					p, s.spec.Internal[v].Name, val, s.InternalDomain(p, v))
			}
		}
	}
	return nil
}
