package fault_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
)

// BenchmarkInject measures one reset-and-inject cycle per adversary
// shape on a 16-process grid — the steady-state per-injection cost paid
// inside RunFaulted. All shapes must be allocation-free after warmup.
func BenchmarkInject(b *testing.B) {
	g := graph.Grid(4, 4)
	sys, err := engine.Build(g, engine.FamColoring, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := model.NewRandomConfig(sys, rng.New(1))
	for _, name := range fault.Names() {
		adv, err := fault.ByName(name, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			faulted := adv.Inject(sys, cfg, nil) // bind buffers outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv.Reset(uint64(i))
				faulted = adv.Inject(sys, cfg, faulted[:0])
			}
		})
	}
}

// BenchmarkContainmentBegin measures the per-episode multi-source BFS.
func BenchmarkContainmentBegin(b *testing.B) {
	g := graph.Grid(8, 8)
	faulted := []int{0, 27, 52}
	var c fault.Containment
	c.Begin(g, faulted) // bind buffers outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Begin(g, faulted)
	}
}
