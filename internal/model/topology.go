package model

// Dynamic topology support: a System built with MutableCopy owns a
// mutable graph (graph.MutableCopy) plus private bit-width tables, and the
// Simulator applies discrete topology events — edge removal/restore,
// node crash/join — through ApplyTopology, which keeps the incremental
// enabled/silence caches sound via the same MarkDirty rule the fault
// subsystem uses.
//
// The live topology is always a subgraph of the base graph: edges only
// ever leave and return, a crashed process is isolated (degree 0, still
// scheduled, per the round model) and rejoins with its base edges to
// alive endpoints. Structural parameters visible to protocols stay at
// their base values (N, Δ, constants and constant domains); a process's
// degree-dependent variable domains are the per-degree row of its live
// degree (clamped to >= 1 so no domain empties), its bit widths are
// refreshed from that row, and values pushed outside a shrunken domain
// are clamped deterministically.

import "fmt"

// MutableCopy returns a dynamic copy of the system: same spec,
// constants and structural parameters, but a mutable graph and private
// per-process bit widths that follow the live topology. The per-degree
// domain tables are shared: a process reads the row of its live degree.
// The receiver is unchanged and keeps its immutable graph.
func (s *System) MutableCopy() *System {
	c := *s
	c.g = s.g.MutableCopy()
	c.commBits = append([]uint8(nil), s.commBits...)
	return &c
}

// Dynamic reports whether the system was produced by MutableCopy and
// accepts topology events.
func (s *System) Dynamic() bool { return s.g.Dynamic() }

// refreshDomains recomputes p's communication bit widths from the
// domain row of its live degree (a crashed or isolated process reads
// row 0, which repeats degree 1's). The domains themselves need
// no refresh: they are read through the live degree. Constant bit widths
// are structural and never refreshed (stored constants stay valid).
func (s *System) refreshDomains(p int) {
	cb := s.commBits[p*s.wc : (p+1)*s.wc]
	for v, d := range s.commDomainRow(p) {
		cb[v] = uint8(BitsFor(int(d)))
	}
}

// ResetDynamic restores a dynamic system to its base topology and base
// bit widths. It allocates nothing; calling it on a non-dynamic system
// panics.
func (s *System) ResetDynamic() {
	s.g.ResetTopology()
	for p := 0; p < s.g.N(); p++ {
		s.refreshDomains(p)
	}
}

// TopologyKind enumerates the first-class topology events.
type TopologyKind uint8

const (
	// TopoEdgeRemove removes the live edge {U, V}.
	TopoEdgeRemove TopologyKind = iota
	// TopoEdgeAdd restores the previously removed base edge {U, V}.
	TopoEdgeAdd
	// TopoCrash removes process U from the live topology with all its
	// edges; U keeps its identity and stays schedulable at degree 0.
	TopoCrash
	// TopoJoin rejoins crashed process U with a fresh (all-zero) state;
	// its base edges to alive endpoints are restored.
	TopoJoin
)

// TopologyEvent is one discrete topology change. V is meaningful only
// for the edge kinds.
type TopologyEvent struct {
	Kind TopologyKind
	U, V int
}

// ApplyTopology applies one topology event to the live system and
// configuration, appends every affected process to dst and returns the
// extended slice. Affected means the process's neighborhood structure
// changed: both endpoints of an edge event, or the crashed/joined
// process plus its former/new neighbors. For each affected process the
// simulator refreshes its degree-dependent domains, clamps its state
// into the (possibly shrunken) domains, and applies the MarkDirty rule,
// so the incremental enabled/silence caches stay exact.
//
// The event must be valid for the current topology (the edge to remove
// live, the edge to add a removed base edge, the process to crash
// alive, the process to join crashed) — an invalid event panics, since
// churn adversaries construct events from the live topology and an
// invalid one is a bug, not an input error. The system must be a
// MutableCopy. Steady-state calls allocate nothing beyond dst growth.
func (s *Simulator) ApplyTopology(ev TopologyEvent, dst []int) []int {
	g := s.sys.g
	start := len(dst)
	switch ev.Kind {
	case TopoEdgeRemove:
		if !g.RemoveEdge(ev.U, ev.V) {
			panic(fmt.Sprintf("model: TopoEdgeRemove{%d,%d}: edge not live", ev.U, ev.V))
		}
		dst = append(dst, ev.U, ev.V)
	case TopoEdgeAdd:
		if !g.RestoreEdge(ev.U, ev.V) {
			panic(fmt.Sprintf("model: TopoEdgeAdd{%d,%d}: not a removed base edge between alive processes", ev.U, ev.V))
		}
		dst = append(dst, ev.U, ev.V)
	case TopoCrash:
		// Former neighbors must be collected before their edges go.
		dst = append(dst, ev.U)
		for port := 1; port <= g.Degree(ev.U); port++ {
			dst = append(dst, g.Neighbor(ev.U, port))
		}
		if !g.CrashNode(ev.U) {
			panic(fmt.Sprintf("model: TopoCrash{%d}: process already crashed", ev.U))
		}
	case TopoJoin:
		if !g.ReviveNode(ev.U) {
			panic(fmt.Sprintf("model: TopoJoin{%d}: process not crashed", ev.U))
		}
		dst = append(dst, ev.U)
		for port := 1; port <= g.Degree(ev.U); port++ {
			dst = append(dst, g.Neighbor(ev.U, port))
		}
		// A joining process starts from a fresh default state.
		clear(s.cfg.commRow(ev.U))
		clear(s.cfg.internalRow(ev.U))
	default:
		panic(fmt.Sprintf("model: unknown topology event kind %d", ev.Kind))
	}
	for _, p := range dst[start:] {
		s.sys.refreshDomains(p)
		clampRow(s.cfg.commRow(p), s.sys.commDomainRow(p))
		clampRow(s.cfg.internalRow(p), s.sys.internalDomainRow(p))
		s.MarkDirty(p)
	}
	return dst
}

// clampRow folds values into their (refreshed) domains. Reduction
// modulo the new domain is deterministic and keeps in-domain values
// untouched.
func clampRow(row, doms []int32) {
	for v, val := range row {
		if d := doms[v]; val >= d {
			row[v] = val % d
		}
	}
}
