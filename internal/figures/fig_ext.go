package figures

import (
	"fmt"

	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/icache"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/report"
	"memexplore/internal/stackdist"
)

// ExtBreakdown decomposes the energy of the Figure 4 sweep into the §2.3
// components, exposing the mechanism behind the paper's headline: small
// caches are dominated by main-memory (miss) energy, large caches by the
// cell arrays, so the optimum sits in between.
func ExtBreakdown() (*Result, error) {
	res := &Result{ID: "ext-breakdown", Title: "Extension: §2.3 energy components across the Compress size sweep (Em=4.95 nJ)"}
	var points []core.ConfigPoint
	for _, c := range []int{16, 32, 64, 128, 256, 512} {
		points = append(points, core.ConfigPoint{CacheSize: c, LineSize: 4, Assoc: 1, Tiling: 1})
	}
	opts := pointOpts(core.DefaultOptions(), points)
	ms, err := evalPoints(kernels.Compress(), opts, points)
	if err != nil {
		return nil, err
	}
	tbl := report.New("", "config", "E_dec", "E_cell", "E_io", "E_main", "total(nJ)", "cell share", "main share")
	for _, m := range ms {
		tbl.MustAdd(cl(m.CacheSize, m.LineSize),
			report.F(m.Energy.DecNJ), report.F(m.Energy.CellNJ),
			report.F(m.Energy.IONJ), report.F(m.Energy.MainNJ),
			report.F(m.EnergyNJ),
			report.F(m.Energy.CellNJ/m.EnergyNJ),
			report.F(m.Energy.MainNJ/m.EnergyNJ))
	}
	res.addTable(tbl)
	small, large := ms[0], ms[len(ms)-1]
	res.checkf(small.Energy.MainNJ > small.Energy.CellNJ,
		"the smallest cache is main-memory dominated (%.0f vs %.0f nJ)", small.Energy.MainNJ, small.Energy.CellNJ)
	res.checkf(large.Energy.CellNJ > large.Energy.MainNJ,
		"the largest cache is cell-array dominated (%.0f vs %.0f nJ)", large.Energy.CellNJ, large.Energy.MainNJ)
	return res, nil
}

// ExtICache runs the paper's stated future-work extension: explore an
// instruction cache for the Compress kernel with the same metrics, then
// merge the I- and D-sweeps under a shared on-chip budget.
func ExtICache() (*Result, error) {
	res := &Result{ID: "ext-icache", Title: "Extension (§6): instruction-cache exploration and joint I+D selection"}
	gen := icache.DefaultCodeGen()
	n := kernels.Compress()
	code, err := icache.CodeBytes(n, gen)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.CacheSizes = []int{16, 32, 64, 128, 256}
	opts.LineSizes = []int{4, 8, 16}
	opts.Assocs = []int{1, 2}
	opts.Tilings = []int{1}
	instr, err := icache.Explore(n, gen, opts)
	if err != nil {
		return nil, err
	}
	data, err := core.Explore(n, opts)
	if err != nil {
		return nil, err
	}

	tbl := report.New(fmt.Sprintf("I-cache sweep (static code %d bytes)", code),
		"config", "missrate", "cycles", "energy(nJ)")
	shown := 0
	for _, m := range instr {
		if m.Assoc != 1 || m.LineSize != 8 {
			continue
		}
		tbl.MustAdd(cl(m.CacheSize, m.LineSize), report.F(m.MissRate), report.F(m.Cycles), report.F(m.EnergyNJ))
		shown++
	}
	res.addTable(tbl)

	iBest, _ := core.MinEnergy(instr)
	res.findf("min-energy I-cache: %s (miss rate %.4f) for %d bytes of loop code", iBest.Label(), iBest.MissRate, code)
	res.checkf(iBest.MissRate < 0.01,
		"the loop code is nearly cache-resident at the I-cache optimum (miss rate %.4f)", iBest.MissRate)

	jt := report.New("joint I+D selection under an on-chip budget", "budget(B)", "I-config", "D-config", "total energy(nJ)")
	var prev float64
	monotone := true
	for _, budget := range []int{32, 64, 128, 0} {
		choice, ok := icache.ExploreJoint(instr, data, budget)
		if !ok {
			jt.MustAdd(report.I(budget), "-", "-", "infeasible")
			continue
		}
		label := report.I(budget)
		if budget == 0 {
			label = "∞"
		}
		jt.MustAdd(label, choice.Instr.Label(), choice.Data.Label(), report.F(choice.TotalEnergy()))
		if prev != 0 && choice.TotalEnergy() > prev+1e-9 {
			monotone = false
		}
		prev = choice.TotalEnergy()
	}
	res.addTable(jt)
	res.checkf(monotone, "loosening the budget never increases the joint optimum's energy")
	_ = shown
	return res, nil
}

// ExtStackDist cross-checks the exploration's capacity knees against a
// single-pass reuse-distance analysis: the miss-rate-vs-size curve of a
// fully associative cache computed from the stack-distance histogram must
// match the simulator exactly, and its knees explain where the sweep's
// miss rates drop.
func ExtStackDist() (*Result, error) {
	res := &Result{ID: "ext-stackdist", Title: "Extension: reuse-distance (stack-distance) analysis of the benchmark kernels"}
	const line = 8
	caps := []int{4, 8, 16, 32, 64, 128}
	tbl := report.New(fmt.Sprintf("fully associative miss rate by capacity (lines of %dB)", line),
		"kernel", "ws(lines)", "c=4", "c=8", "c=16", "c=32", "c=64", "c=128")
	exact := true
	for _, n := range fiveKernels() {
		tr, err := n.Generate(loopir.SequentialLayout(n, 0))
		if err != nil {
			return nil, err
		}
		h, err := stackdist.Compute(tr, line)
		if err != nil {
			return nil, err
		}
		row := []string{n.Name, report.U(h.WorkingSet())}
		for _, rate := range h.Curve(caps) {
			row = append(row, report.F(rate))
		}
		tbl.MustAdd(row...)
		// Exactness check against the simulator at two capacities.
		for _, c := range []int{8, 32} {
			cfg := cachesim.DefaultConfig(line*c, line, c)
			st, err := cachesim.RunTrace(cfg, tr)
			if err != nil {
				return nil, err
			}
			if h.Misses(c) != st.Misses {
				exact = false
			}
		}
	}
	res.addTable(tbl)
	res.checkf(exact, "stack-distance predictions match the fully associative simulator exactly (Mattson)")
	return res, nil
}

// ExtWarm quantifies the §5 independence assumption: Aggregate composes
// cold per-kernel runs linearly, while a real decoder's kernels share a
// warm cache. The warm pipeline's miss rate should not exceed the cold
// composition's on a reasonably sized cache (cross-kernel reuse survives),
// while tiny caches show cross-kernel eviction.
func ExtWarm() (*Result, error) {
	res := &Result{ID: "ext-warm", Title: "Extension: warm pipeline vs the paper's cold per-kernel composition (§5)"}
	ws := []core.WeightedKernel{}
	for _, k := range kernels.MPEGKernels() {
		ws = append(ws, core.WeightedKernel{Nest: k.Nest, Trip: k.Trip})
	}
	// Scale trips down so the composite trace stays small (÷99: VLD 4x,
	// IDCT 24x, …).
	warm, err := core.WarmTrace(ws, 99)
	if err != nil {
		return nil, err
	}
	res.findf("composite warm trace: %d references", warm.Len())

	opts := core.DefaultOptions()
	cfgs := []cachesim.Config{
		cachesim.DefaultConfig(64, 8, 2),
		cachesim.DefaultConfig(256, 8, 2),
		cachesim.DefaultConfig(1024, 16, 4),
	}
	tbl := report.New("", "config", "warm missrate", "cold missrate", "warm/cold")
	improvedSomewhere := false
	// The bus activity depends only on the trace: measure once, score
	// every configuration against it.
	warmAddBS := core.TraceAddBS(warm)
	for _, cfg := range cfgs {
		warmM, err := core.EvaluateTraceMeasured(warm, warmAddBS, cfg, 1, opts.Energy)
		if err != nil {
			return nil, err
		}
		// Cold composition: per-kernel cold miss rates weighted by their
		// share of the composite trace.
		var coldMisses, total float64
		for _, k := range ws {
			tr, err := k.Nest.Generate(loopir.SequentialLayout(k.Nest, 0))
			if err != nil {
				return nil, err
			}
			st, err := cachesim.RunTrace(cfg, tr)
			if err != nil {
				return nil, err
			}
			rep := k.Trip / 99
			if rep < 1 {
				rep = 1
			}
			coldMisses += float64(st.Misses) * float64(rep)
			total += float64(st.Accesses) * float64(rep)
		}
		coldRate := coldMisses / total
		ratio := warmM.MissRate / coldRate
		tbl.MustAdd(cfg.String(), report.F(warmM.MissRate), report.F(coldRate), report.F(ratio))
		if ratio < 0.95 {
			improvedSomewhere = true
		}
	}
	res.addTable(tbl)
	res.checkf(improvedSomewhere,
		"on larger caches, cross-kernel warm reuse beats the paper's cold composition — the §5 numbers are conservative")
	return res, nil
}
