package figures

import (
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/energy"
	"memexplore/internal/kernels"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
	"memexplore/internal/report"
	"memexplore/internal/scratchpad"
)

// ExtVictim compares the two ways of killing conflict misses: the paper's
// software answer (§4.1 off-chip assignment) versus the classic hardware
// answer (a small fully associative victim buffer). Both should recover
// most of the conflict losses of the sequential layout; the software fix
// needs no extra silicon.
func ExtVictim() (*Result, error) {
	res := &Result{ID: "ext-victim", Title: "Extension: §4.1 software layout vs a hardware victim buffer"}
	tbl := report.New("miss rate at C32L4 (direct-mapped)",
		"kernel", "sequential", "victim(4 lines)", "optimized layout", "opt+victim")
	cfg := cachesim.DefaultConfig(32, 4, 1)
	vcfg := cfg
	vcfg.VictimLines = 4

	closeToVictim := 0
	victimHelps := 0
	nothingLeft := 0
	for _, n := range fiveKernels() {
		seqTr, err := n.Generate(loopir.SequentialLayout(n, 0))
		if err != nil {
			return nil, err
		}
		plan, err := layout.Optimize(n, cfg.LineBytes, cfg.NumLines())
		if err != nil {
			return nil, err
		}
		optTr, err := n.Generate(plan.Layout)
		if err != nil {
			return nil, err
		}
		seq, err := cachesim.RunTrace(cfg, seqTr)
		if err != nil {
			return nil, err
		}
		vic, err := cachesim.RunTrace(vcfg, seqTr)
		if err != nil {
			return nil, err
		}
		opt, err := cachesim.RunTrace(cfg, optTr)
		if err != nil {
			return nil, err
		}
		both, err := cachesim.RunTrace(vcfg, optTr)
		if err != nil {
			return nil, err
		}
		tbl.MustAdd(n.Name, report.F(seq.MissRate()), report.F(vic.MissRate()),
			report.F(opt.MissRate()), report.F(both.MissRate()))
		if opt.MissRate() <= 2*vic.MissRate()+1e-9 {
			closeToVictim++
		}
		if vic.MissRate() < seq.MissRate()-1e-9 {
			victimHelps++
		}
		if both.MissRate() >= opt.MissRate()-1e-9 {
			nothingLeft++
		}
	}
	res.addTable(tbl)
	res.findf("note: the 4-line victim buffer adds 16 bytes (+50%%) of storage to the 32-byte cache; the layout fix adds none")
	res.checkf(victimHelps >= 4,
		"the victim buffer recovers conflicts on the sequential layout for %d of 5 kernels — conflicts are the problem", victimHelps)
	res.checkf(closeToVictim >= 4,
		"the zero-hardware §4.1 layout gets within 2x of the victim buffer's miss rate for %d of 5 kernels", closeToVictim)
	res.checkf(nothingLeft >= 3,
		"after layout optimization the victim buffer finds nothing left to recover for %d of 5 kernels — the layout removed the conflicts", nothingLeft)
	return res, nil
}

// ExtSPM compares the explored cache against a software-managed
// scratchpad of equal capacity — the organization choice the paper's
// lineage ([1], [2]) frames. Caches win when the working set exceeds
// on-chip capacity but has locality; scratchpads win when a hot array
// fits exactly and tags/misses are pure overhead.
func ExtSPM() (*Result, error) {
	res := &Result{ID: "ext-spm", Title: "Extension: cache vs scratchpad at equal on-chip capacity"}
	part := energy.CypressCY7C()
	spmParams := scratchpad.DefaultParams(part)

	tbl := report.New("minimum-energy organization per kernel (capacity ≤ 1024 B)",
		"kernel", "cache config", "cache energy(nJ)", "spm capacity", "spm hitrate", "spm energy(nJ)", "winner")
	capacities := []int{64, 128, 256, 512, 1024}
	cacheWins, spmWins := 0, 0
	// The five paper kernels plus two with small hot arrays (FIR's
	// 64-byte tap table, Conv2D's 9-byte stencil) — the scratchpad's
	// natural territory.
	suite := append(fiveKernels(), kernels.FIR(), kernels.Conv2D())
	for _, n := range suite {
		opts := core.DefaultOptions()
		opts.CacheSizes = capacities
		opts.Energy = energy.DefaultParams(part)
		cms, err := core.Explore(n, opts)
		if err != nil {
			return nil, err
		}
		cBest, _ := core.MinEnergy(cms)
		sms, err := scratchpad.Explore(n, capacities, spmParams)
		if err != nil {
			return nil, err
		}
		sBest, ok := scratchpad.MinEnergy(sms)
		if !ok {
			continue
		}
		winner := "cache"
		if sBest.EnergyNJ < cBest.EnergyNJ {
			winner = "scratchpad"
			spmWins++
		} else {
			cacheWins++
		}
		tbl.MustAdd(n.Name, cBest.Label(), report.F(cBest.EnergyNJ),
			report.I(sBest.CapacityBytes), report.F(sBest.HitRate), report.F(sBest.EnergyNJ), winner)
	}
	res.addTable(tbl)
	res.checkf(cacheWins > 0 && spmWins > 0,
		"neither organization dominates (cache wins %d, scratchpad wins %d) — the exploration question is real",
		cacheWins, spmWins)

	// The FIR special case: the 64-byte tap table is read every iteration
	// and fits on-chip exactly — the scratchpad's sweet spot.
	sms, err := scratchpad.Explore(kernels.FIR(), capacities, spmParams)
	if err != nil {
		return nil, err
	}
	sBest, _ := scratchpad.MinEnergy(sms)
	res.checkf(sBest.HitRate > 0.2,
		"FIR's scratchpad optimum keeps the hot tap table on-chip (%d bytes, hit rate %.2f)",
		sBest.CapacityBytes, sBest.HitRate)
	return res, nil
}
