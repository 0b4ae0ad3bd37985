package memexplore_test

import (
	"math"
	"testing"

	"memexplore"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	kern, err := memexplore.Kernel("compress")
	if err != nil {
		t.Fatal(err)
	}
	opts := memexplore.DefaultOptions()
	opts.CacheSizes = []int{16, 32, 64, 128}
	opts.Assocs = []int{1, 2}
	opts.Tilings = []int{1}
	ms, err := memexplore.Explore(kern, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no metrics")
	}
	minE, ok := memexplore.MinEnergy(ms)
	if !ok {
		t.Fatal("no energy optimum")
	}
	minC, ok := memexplore.MinCycles(ms)
	if !ok {
		t.Fatal("no cycle optimum")
	}
	if minE.EnergyNJ > minC.EnergyNJ {
		t.Error("MinEnergy worse than MinCycles on energy")
	}
	if _, ok := memexplore.MinEnergyUnderCycleBound(ms, math.Inf(1)); !ok {
		t.Error("unbounded query must succeed")
	}
	if len(memexplore.ParetoFrontier(ms)) == 0 {
		t.Error("empty Pareto frontier")
	}
}

func TestFacadeKernelRegistry(t *testing.T) {
	names := memexplore.KernelNames()
	if len(names) < 10 {
		t.Errorf("expected ≥10 kernels, got %d", len(names))
	}
	if len(memexplore.PaperBenchmarks()) != 5 {
		t.Error("want 5 paper benchmarks")
	}
	if len(memexplore.MPEGDecoder()) != 9 {
		t.Error("want 9 MPEG kernels")
	}
	if _, err := memexplore.Kernel("definitely-not-a-kernel"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestFacadeSimulationPath(t *testing.T) {
	kern, err := memexplore.Kernel("matadd")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := memexplore.GenerateTrace(kern, memexplore.SequentialLayout(kern, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := memexplore.NewCacheConfig(64, 8, 2)
	st, err := memexplore.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != uint64(tr.Len()) {
		t.Errorf("accesses %d, trace %d", st.Accesses, tr.Len())
	}
	c, err := memexplore.NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if c.Stats() != st {
		t.Error("incremental cache diverges from Simulate")
	}
}

func TestFacadeAnalyticalAndLayout(t *testing.T) {
	kern, err := memexplore.Kernel("compress")
	if err != nil {
		t.Fatal(err)
	}
	size, err := memexplore.MinCacheSize(kern, 8)
	if err != nil {
		t.Fatal(err)
	}
	if size != 32 {
		t.Errorf("min cache size = %d, want 32 (4 lines × 8)", size)
	}
	lines, err := memexplore.MinCacheLines(kern, 8)
	if err != nil || lines != 4 {
		t.Errorf("min lines = %d, %v", lines, err)
	}
	plan, err := memexplore.OptimizeLayout(kern, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Layout) == 0 {
		t.Error("empty layout")
	}
	tiled, err := memexplore.Tile(kern, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Depth() != 4 {
		t.Errorf("tiled depth = %d", tiled.Depth())
	}
}

func TestFacadeAggregate(t *testing.T) {
	opts := memexplore.DefaultOptions()
	opts.CacheSizes = []int{32, 64}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1}
	opts.Tilings = []int{1}
	program, perKernel, err := memexplore.Aggregate(memexplore.MPEGDecoder(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(program) == 0 || len(perKernel) != 9 {
		t.Fatalf("program %d rows, perKernel %d", len(program), len(perKernel))
	}
}

func TestFacadeCatalog(t *testing.T) {
	cat := memexplore.SRAMCatalog()
	if len(cat) != 3 {
		t.Fatalf("catalog %d parts", len(cat))
	}
	p := memexplore.DefaultEnergyParams(cat[0])
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	kern, err := memexplore.Kernel("compress")
	if err != nil {
		t.Fatal(err)
	}
	// Parser round trip via the facade.
	parsed, err := memexplore.ParseKernel(kern.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != "compress" {
		t.Errorf("parsed name = %q", parsed.Name)
	}
	// Unroll + Interchange.
	un, err := memexplore.Unroll(kern, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(un.Body) != 31*5 {
		t.Errorf("unrolled body = %d refs", len(un.Body))
	}
	if _, err := memexplore.Interchange(kern, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Trace analysis + reuse distance.
	tr, err := memexplore.GenerateTrace(kern, memexplore.SequentialLayout(kern, 0))
	if err != nil {
		t.Fatal(err)
	}
	p := memexplore.AnalyzeTrace(tr)
	if p.References != tr.Len() {
		t.Errorf("profile references = %d", p.References)
	}
	h, err := memexplore.ComputeReuse(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := memexplore.Simulate(memexplore.NewCacheConfig(64, 8, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if h.Misses(8) != st.Misses {
		t.Errorf("reuse prediction %d != simulator %d", h.Misses(8), st.Misses)
	}
	// EDP and parallel exploration.
	opts := memexplore.DefaultOptions()
	opts.CacheSizes = []int{32, 64}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1}
	opts.Tilings = []int{1}
	opts.Workers = 2
	ms, err := memexplore.Explore(kern, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := memexplore.MinEDP(ms); !ok {
		t.Error("no EDP optimum")
	}
	// Warm composition + generic trace evaluation.
	warm, err := memexplore.WarmTrace(memexplore.MPEGDecoder(), 200)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := memexplore.EvaluateTrace(warm, memexplore.NewCacheConfig(256, 8, 2), 1, opts.Energy)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Accesses != uint64(warm.Len()) {
		t.Errorf("warm accesses = %d", wm.Accesses)
	}
}

func TestFacadeICacheAndSPM(t *testing.T) {
	kern, err := memexplore.Kernel("fir")
	if err != nil {
		t.Fatal(err)
	}
	gen := memexplore.DefaultCodeGen()
	code, err := memexplore.CodeBytes(kern, gen)
	if err != nil || code <= 0 {
		t.Fatalf("code bytes = %d, %v", code, err)
	}
	itr, err := memexplore.InstructionTrace(kern, gen)
	if err != nil || itr.Len() == 0 {
		t.Fatalf("instruction trace: %d, %v", itr.Len(), err)
	}
	opts := memexplore.DefaultOptions()
	opts.CacheSizes = []int{32, 64, 128}
	opts.LineSizes = []int{8}
	opts.Assocs = []int{1}
	opts.Tilings = []int{1}
	instr, err := memexplore.ExploreICache(kern, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := memexplore.Explore(kern, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := memexplore.ExploreJoint(instr, data, 0); !ok {
		t.Error("joint exploration failed")
	}
	// Scratchpad.
	spm := memexplore.DefaultSPMParams(memexplore.SRAMCatalog()[0])
	a, err := memexplore.AssignSPM(kern, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InSPM["h"] {
		t.Errorf("FIR's tap table should be on-chip: %+v", a)
	}
	sms, err := memexplore.ExploreSPM(kern, []int{64, 128, 256}, spm)
	if err != nil || len(sms) != 3 {
		t.Fatalf("SPM explore: %d, %v", len(sms), err)
	}
}
