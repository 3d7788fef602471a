package fault

import (
	"repro/internal/model"
	"repro/internal/rng"
)

// picker owns the shared victim-selection machinery: a private reseedable
// generator plus a reusable permutation buffer. Victims(n, k) draws
// exactly the stream of rng.New(seed).Perm(n) truncated to k ids, which
// is what keeps the Uniform adversary byte-compatible with the legacy
// E15 corruption path.
type picker struct {
	src  rng.SplitMix
	r    *rng.Rand
	perm []int
}

func (pk *picker) init() { pk.r = rng.FromSource(&pk.src) }

func (pk *picker) reset(seed uint64) { pk.src.Reseed(seed) }

// victims returns k distinct process ids drawn as the prefix of a
// uniform random permutation of [0, n). The returned slice is the
// picker's reusable buffer, valid until the next call.
func (pk *picker) victims(n, k int) []int {
	if cap(pk.perm) < n {
		pk.perm = make([]int, n)
	}
	pk.perm = pk.perm[:n]
	for i := range pk.perm {
		pk.perm[i] = i
	}
	// Fisher-Yates with exactly rng.Rand.Perm's draw order.
	for i := n - 1; i > 0; i-- {
		j := pk.r.Intn(i + 1)
		pk.perm[i], pk.perm[j] = pk.perm[j], pk.perm[i]
	}
	if k > n {
		k = n
	}
	return pk.perm[:k]
}

// Uniform corrupts K uniformly chosen processes by redrawing their whole
// state (communication and internal) uniformly from the state space —
// the "arbitrary transient fault" of the paper, one process at a time. It
// subsumes the legacy E15 corruption: Reset(seed) followed by one Inject
// emits exactly the draw stream of the old clone-then-corrupt code.
type Uniform struct {
	pk picker
	k  int
}

// NewUniform returns a Uniform adversary corrupting k processes per
// injection (at least 1).
func NewUniform(k int) *Uniform {
	a := &Uniform{k: max(1, k)}
	a.pk.init()
	return a
}

// Name implements Adversary.
func (*Uniform) Name() string { return "uniform" }

// Reset implements Adversary.
func (a *Uniform) Reset(seed uint64) { a.pk.reset(seed) }

// Inject implements Adversary.
func (a *Uniform) Inject(sys *model.System, cfg *model.Config, dst []int) []int {
	for _, p := range a.pk.victims(sys.N(), a.k) {
		model.RandomizeProcess(sys, cfg, p, a.pk.r)
		dst = append(dst, p)
	}
	return dst
}

// CommOnly corrupts only the communication registers of K uniformly
// chosen processes, redrawing each register's value uniformly from its
// domain while leaving internal state intact — the fault model of a
// glitched shared register (the value a neighbor reads) rather than a
// corrupted process.
type CommOnly struct {
	pk picker
	k  int
}

// NewCommOnly returns a CommOnly adversary corrupting the communication
// registers of k processes per injection (at least 1).
func NewCommOnly(k int) *CommOnly {
	a := &CommOnly{k: max(1, k)}
	a.pk.init()
	return a
}

// Name implements Adversary.
func (*CommOnly) Name() string { return "comm" }

// Reset implements Adversary.
func (a *CommOnly) Reset(seed uint64) { a.pk.reset(seed) }

// Inject implements Adversary.
func (a *CommOnly) Inject(sys *model.System, cfg *model.Config, dst []int) []int {
	for _, p := range a.pk.victims(sys.N(), a.k) {
		for v := range sys.CommWidth() {
			cfg.SetComm(p, v, a.pk.r.Intn(sys.CommDomain(p, v)))
		}
		dst = append(dst, p)
	}
	return dst
}

// CrashReset models K uniformly chosen processes crashing and rebooting
// into their designated initial local state (all variables zero): a
// correlated, non-uniform fault that a recovering protocol must absorb
// just like arbitrary corruption.
type CrashReset struct {
	pk picker
	k  int
}

// NewCrashReset returns a CrashReset adversary rebooting k processes per
// injection (at least 1).
func NewCrashReset(k int) *CrashReset {
	a := &CrashReset{k: max(1, k)}
	a.pk.init()
	return a
}

// Name implements Adversary.
func (*CrashReset) Name() string { return "crash" }

// Reset implements Adversary.
func (a *CrashReset) Reset(seed uint64) { a.pk.reset(seed) }

// Inject implements Adversary.
func (a *CrashReset) Inject(sys *model.System, cfg *model.Config, dst []int) []int {
	for _, p := range a.pk.victims(sys.N(), a.k) {
		for v := range sys.CommWidth() {
			cfg.SetComm(p, v, 0)
		}
		for v := range sys.InternalWidth() {
			cfg.SetInternal(p, v, 0)
		}
		dst = append(dst, p)
	}
	return dst
}

// Cluster corrupts a BFS ball: a uniformly chosen epicenter plus its
// K-1 nearest processes in breadth-first port order, each with its whole
// state redrawn uniformly. Clustered faults are the natural probe for
// containment: the fault region has small diameter, so the containment
// radius isolates how far corrections leak beyond it.
type Cluster struct {
	pk picker
	k  int

	// Reusable BFS state, bound to the current system size.
	dist  []int
	queue []int

	lastBallRadius int
}

// NewCluster returns a Cluster adversary corrupting a BFS ball of k
// processes per injection (at least 1).
func NewCluster(k int) *Cluster {
	a := &Cluster{k: max(1, k), lastBallRadius: -1}
	a.pk.init()
	return a
}

// Name implements Adversary.
func (*Cluster) Name() string { return "cluster" }

// Reset implements Adversary.
func (a *Cluster) Reset(seed uint64) {
	a.pk.reset(seed)
	a.lastBallRadius = -1
}

// LastBallRadius returns the graph radius of the most recent injection's
// fault ball: the distance from the epicenter to the farthest corrupted
// process (-1 before the first injection).
func (a *Cluster) LastBallRadius() int { return a.lastBallRadius }

// Inject implements Adversary. Victims are collected in deterministic
// breadth-first order from the epicenter (neighbors in port order), so
// the corrupted ball is a function of the seed and the graph alone.
func (a *Cluster) Inject(sys *model.System, cfg *model.Config, dst []int) []int {
	n := sys.N()
	if cap(a.dist) < n {
		a.dist = make([]int, n)
		a.queue = make([]int, 0, n)
	}
	a.dist = a.dist[:n]
	for i := range a.dist {
		a.dist[i] = -1
	}
	g := sys.Graph()
	epi := a.pk.r.Intn(n)
	a.lastBallRadius = 0
	a.dist[epi] = 0
	a.queue = append(a.queue[:0], epi)
	k := min(a.k, n)
	taken := 0
	for head := 0; head < len(a.queue) && taken < k; head++ {
		p := a.queue[head]
		model.RandomizeProcess(sys, cfg, p, a.pk.r)
		dst = append(dst, p)
		if a.dist[p] > a.lastBallRadius {
			a.lastBallRadius = a.dist[p]
		}
		taken++
		for port := 1; port <= g.Degree(p); port++ {
			q := g.Neighbor(p, port)
			if a.dist[q] == -1 {
				a.dist[q] = a.dist[p] + 1
				a.queue = append(a.queue, q)
			}
		}
	}
	return dst
}
