package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/trace"
)

// E2CommunicationBits reproduces the worked examples of Section 3.2:
// Protocol COLORING reads log(Δ+1) bits per step while the traditional
// full-read protocol reads Δ·log(Δ+1); the space complexity of a process
// is 2·log(Δ+1) + log(δ.p) bits.
func E2CommunicationBits(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	// A post-silence suffix of 2 rounds guarantees every process — in
	// particular one of degree Δ — is selected at least twice while
	// measuring (a run can otherwise reach silence before the max-degree
	// process ever evaluates a guard).
	var specs []engine.ProtoCell
	for _, g := range graphs {
		specs = append(specs,
			engine.ProtoCell{Graph: g, Family: engine.FamColoring, SuffixRounds: 2},
			engine.ProtoCell{Graph: g, Family: engine.FamColoringBaseline, SuffixRounds: 2})
	}
	// Streaming aggregation: only the per-cell maximum witnessed
	// communication complexity is kept.
	maxBits := make([]int, len(specs))
	err = runProtoCells(cfg, specs, func(cell, _ int, res *core.FaultResult) error {
		if res.Report.CommComplexityBits > maxBits[cell] {
			maxBits[cell] = res.Report.CommComplexityBits
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E2: communication & space complexity (Section 3.2)",
		"graph", "Δ", "log(Δ+1)", "eff bits/step", "Δ·log(Δ+1)", "base bits/step",
		"space bits (max p)", "theory space", "ok")
	pass := true
	for i, g := range graphs {
		perColor := model.BitsFor(g.MaxDegree() + 1)
		wantEff := perColor
		wantBase := g.MaxDegree() * perColor

		maxEffBits, maxBaseBits := maxBits[2*i], maxBits[2*i+1]
		// Space complexity of a maximum-degree process of the efficient
		// protocol: comm var log(Δ+1) + internal log(δ.p) + measured
		// communication complexity.
		sys, err := engine.Build(g, engine.FamColoring, nil)
		if err != nil {
			return nil, err
		}
		maxP := 0
		for p := 0; p < g.N(); p++ {
			if g.Degree(p) > g.Degree(maxP) {
				maxP = p
			}
		}
		space := trace.SpaceComplexityBits(sys, maxP, maxEffBits)
		wantSpace := 2*perColor + model.BitsFor(g.Degree(maxP))

		// The baseline's witnessed complexity requires some process of
		// degree Δ to have been selected, which every run guarantees
		// (fair schedulers). The efficient bound is exact.
		ok := maxEffBits == wantEff && maxBaseBits == wantBase && space == wantSpace
		pass = pass && ok
		table.AddRow(g.Name(), g.MaxDegree(), wantEff, maxEffBits, wantBase, maxBaseBits,
			space, wantSpace, ok)
	}
	return &Result{
		ID:       "E2",
		Title:    "per-step communication bits: efficient vs full-read",
		PaperRef: "Section 3.2 (Definitions 5-6 worked examples)",
		Claim:    "COLORING reads log(Δ+1) bits/step; the traditional protocol reads Δ·log(Δ+1); space = 2log(Δ+1)+log(δ.p)",
		Table:    table,
		Pass:     pass,
	}, nil
}

// E10StabilizedOverhead reproduces the headline motivation (Section 1):
// after stabilization, the paper's protocols keep communication strictly
// below "checking every neighbor forever". Measured as mean distinct
// neighbor reads and bits per selection during a post-silence suffix,
// efficient vs full-read baseline.
func E10StabilizedOverhead(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	graphs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	pairs := [][2]string{
		{engine.FamColoring, engine.FamColoringBaseline},
		{engine.FamMIS, engine.FamMISBaseline},
		{engine.FamMatching, engine.FamMatchingBaseline},
	}
	type cellMeta struct {
		family, graphName string
	}
	var specs []engine.ProtoCell
	var metas []cellMeta
	for _, g := range graphs {
		for _, pair := range pairs {
			for _, family := range pair {
				specs = append(specs, engine.ProtoCell{
					Graph: g, Family: family, SuffixRounds: 4 * g.N(),
				})
				metas = append(metas, cellMeta{family: family, graphName: g.Name()})
			}
		}
	}
	// Streaming aggregation: per-cell maxima of the suffix overhead
	// rates; a non-stabilizing run aborts the experiment as before.
	type acc struct {
		reads, bits float64
	}
	accs := make([]acc, len(specs))
	err = runProtoCells(cfg, specs, func(cell, _ int, res *core.FaultResult) error {
		if !res.Silent {
			return fmt.Errorf("experiment: %s on %s did not stabilize",
				metas[cell].family, metas[cell].graphName)
		}
		a := &accs[cell]
		if v := res.Report.SuffixAvgReadsPerSelection(); v > a.reads {
			a.reads = v
		}
		if v := res.Report.SuffixAvgBitsPerSelection(); v > a.bits {
			a.bits = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("E10: stabilized-phase communication overhead (Section 1 motivation)",
		"graph", "protocol", "eff reads/sel", "base reads/sel", "eff bits/sel",
		"base bits/sel", "saving", "ok")
	pass := true
	idx := 0
	for _, g := range graphs {
		for _, pair := range pairs {
			effReads, effBits := accs[idx].reads, accs[idx].bits
			baseReads, baseBits := accs[idx+1].reads, accs[idx+1].bits
			idx += 2
			// Star graphs aside, the baseline must read strictly more
			// than the efficient protocol once stabilized (every
			// selection of a degree>1 process reads all its neighbors).
			ok := effBits <= baseBits && effReads <= baseReads && baseBits > 0
			pass = pass && ok
			saving := 0.0
			if baseBits > 0 {
				saving = 1 - effBits/baseBits
			}
			table.AddRow(g.Name(), pair[0], effReads, baseReads, effBits, baseBits,
				fmt.Sprintf("%.0f%%", saving*100), ok)
		}
	}
	return &Result{
		ID:       "E10",
		Title:    "post-silence reads and bits per selection",
		PaperRef: "Section 1 (motivation), Section 3 measures",
		Claim:    "stabilized-phase communication of the 1-efficient protocols is at most that of full-read local checking, typically ~1/Δ of it",
		Table:    table,
		Pass:     pass,
		Notes:    "suffix of 4n rounds after silence under the random-subset scheduler",
	}, nil
}
