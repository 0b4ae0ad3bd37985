package core

import (
	"math"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

func TestEnergyBreakdownConsistent(t *testing.T) {
	ms, err := Explore(kernels.Compress(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if math.Abs(m.Energy.Total()-m.EnergyNJ) > 1e-6 {
			t.Fatalf("%s: breakdown total %v != EnergyNJ %v", m.Label(), m.Energy.Total(), m.EnergyNJ)
		}
		if m.Energy.DecNJ < 0 || m.Energy.CellNJ <= 0 || m.Energy.IONJ < 0 || m.Energy.MainNJ < 0 {
			t.Fatalf("%s: degenerate breakdown %+v", m.Label(), m.Energy)
		}
		if m.Misses > 0 && m.Energy.MainNJ == 0 {
			t.Fatalf("%s: misses without main-memory energy", m.Label())
		}
	}
	// The mechanism behind Figures 1/4: cell energy dominates large
	// caches, main-memory energy dominates small ones.
	small, _ := Find(ms, ConfigPoint{CacheSize: 16, LineSize: 4, Assoc: 1, Tiling: 1})
	large, _ := Find(ms, ConfigPoint{CacheSize: 512, LineSize: 4, Assoc: 1, Tiling: 1})
	if small.Energy.MainNJ <= small.Energy.CellNJ {
		t.Errorf("small cache should be main-memory dominated: %+v", small.Energy)
	}
	if large.Energy.CellNJ <= large.Energy.MainNJ {
		t.Errorf("large cache should be cell-array dominated: %+v", large.Energy)
	}
}

func TestMinEDP(t *testing.T) {
	ms, err := Explore(kernels.Compress(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, ok := MinEDP(ms)
	if !ok {
		t.Fatal("no EDP optimum")
	}
	for _, o := range ms {
		if o.EDP() < m.EDP() {
			t.Fatalf("MinEDP missed %v < %v", o.EDP(), m.EDP())
		}
	}
	minE, _ := MinEnergy(ms)
	minC, _ := MinCycles(ms)
	if m.EDP() > minE.EDP() || m.EDP() > minC.EDP() {
		t.Error("EDP optimum must be at least as good as both single-objective optima")
	}
	if _, ok := MinEDP(nil); ok {
		t.Error("MinEDP(nil) should report !ok")
	}
}

func TestExploreWorkersMatchSequential(t *testing.T) {
	opts := smallOptions()
	opts.Workers = 1
	seq, err := Explore(kernels.SOR(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8} {
		opts.Workers = workers
		par, err := Explore(kernels.SOR(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: result %d differs:\n par %+v\n seq %+v", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestExploreWorkersPropagateErrors(t *testing.T) {
	opts := smallOptions()
	opts.Workers = 4
	noLines := opts
	noLines.LineSizes = nil
	if _, err := Explore(kernels.SOR(), noLines); err == nil {
		t.Error("invalid options should fail")
	}
	bad := &loopir.Nest{Name: "bad"}
	if _, err := Explore(bad, opts); err == nil {
		t.Error("invalid nest should fail")
	}
}

func TestEvaluateTrace(t *testing.T) {
	n := kernels.Dequant()
	tr, err := n.Generate(loopir.SequentialLayout(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.DefaultConfig(64, 8, 1)
	cfg.Classify = true
	opts := DefaultOptions()
	m, err := EvaluateTrace(tr, cfg, 1, opts.Energy)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accesses != uint64(tr.Len()) {
		t.Errorf("accesses %d, want %d", m.Accesses, tr.Len())
	}
	if m.EnergyNJ <= 0 || m.Cycles <= 0 {
		t.Errorf("degenerate metrics %+v", m)
	}
	// Must agree with the unoptimized, classified Explorer path at the
	// same point.
	o := DefaultOptions()
	o.OptimizeLayout = false
	o.Classify = true
	e, err := NewExplorer(n, o)
	if err != nil {
		t.Fatal(err)
	}
	viaExplorer, err := e.Evaluate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Misses != viaExplorer.Misses || m.ConflictMisses != viaExplorer.ConflictMisses ||
		math.Abs(m.EnergyNJ-viaExplorer.EnergyNJ) > 1e-9 {
		t.Errorf("EvaluateTrace %+v diverges from Explorer %+v", m, viaExplorer)
	}
	if _, err := EvaluateTrace(tr, cachesim.DefaultConfig(60, 8, 1), 1, opts.Energy); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestWarmTrace(t *testing.T) {
	ws := []WeightedKernel{
		{Nest: kernels.Dequant(), Trip: 4},
		{Nest: kernels.MatAdd(), Trip: 2},
	}
	tr, err := WarmTrace(ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	dq, _ := kernels.Dequant().References()
	ma, _ := kernels.MatAdd().References()
	want := int(dq)*2 + int(ma)*1
	if tr.Len() != want {
		t.Errorf("warm trace length %d, want %d", tr.Len(), want)
	}
	// Regions must be disjoint: dequant uses [0, 2048), matadd above.
	lo, _, _ := tr.AddrRange()
	if lo >= 2048 {
		t.Errorf("first region should live below 2048, got min addr %d", lo)
	}
	seenHigh := false
	for i := 0; i < tr.Len(); i++ {
		if tr.At(i).Addr >= 2048 {
			seenHigh = true
			break
		}
	}
	if !seenHigh {
		t.Error("second kernel's region never appears")
	}

	// Errors.
	if _, err := WarmTrace(nil, 1); err == nil {
		t.Error("empty kernel list should fail")
	}
	if _, err := WarmTrace([]WeightedKernel{{Nest: kernels.MatAdd(), Trip: 0}}, 1); err == nil {
		t.Error("zero trip should fail")
	}
	// Scale below 1 is clamped.
	tr2, err := WarmTrace([]WeightedKernel{{Nest: kernels.MatAdd(), Trip: 1}}, 0)
	if err != nil || int64(tr2.Len()) != ma {
		t.Errorf("scale clamp failed: %d, %v", tr2.Len(), err)
	}
}

// The warm composition keeps cross-invocation reuse that cold composition
// discards: on a cache big enough to hold a kernel's working set, the
// warm miss rate must be well below the cold per-invocation miss rate.
func TestWarmVsColdReuse(t *testing.T) {
	ws := []WeightedKernel{{Nest: kernels.Dequant(), Trip: 8}}
	warm, err := WarmTrace(ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.DefaultConfig(4096, 16, 4) // holds both arrays (2 KiB)
	warmStats, err := cachesim.RunTrace(cfg, warm)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := kernels.Dequant().Generate(loopir.SequentialLayout(kernels.Dequant(), 0))
	if err != nil {
		t.Fatal(err)
	}
	coldStats, err := cachesim.RunTrace(cfg, cold)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.MissRate() >= coldStats.MissRate()/2 {
		t.Errorf("warm rate %v should be far below cold rate %v",
			warmStats.MissRate(), coldStats.MissRate())
	}
}

func TestLeakageAndWriteTrafficExtensions(t *testing.T) {
	n := kernels.Compress()
	tr, err := n.Generate(loopir.SequentialLayout(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.DefaultConfig(512, 8, 1)
	base := DefaultOptions().Energy

	plain, err := EvaluateTrace(tr, cfg, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Energy.LeakNJ != 0 || plain.Energy.WriteNJ != 0 {
		t.Fatalf("paper defaults must have zero extension terms: %+v", plain.Energy)
	}

	leaky := base
	leaky.LeakNJPerCycleKB = 0.01
	withLeak, err := EvaluateTrace(tr, cfg, 1, leaky)
	if err != nil {
		t.Fatal(err)
	}
	wantLeak := 0.01 * 512.0 / 1024 * withLeak.Cycles
	if math.Abs(withLeak.Energy.LeakNJ-wantLeak) > 1e-6 {
		t.Errorf("leak = %v, want %v", withLeak.Energy.LeakNJ, wantLeak)
	}
	if withLeak.EnergyNJ <= plain.EnergyNJ {
		t.Error("leakage must increase total energy")
	}
	if math.Abs(withLeak.Energy.Total()-withLeak.EnergyNJ) > 1e-9 {
		t.Error("breakdown total out of sync")
	}

	wt := base
	wt.CountWriteTraffic = true
	withWrites, err := EvaluateTrace(tr, cfg, 1, wt)
	if err != nil {
		t.Fatal(err)
	}
	if withWrites.Energy.WriteNJ <= 0 {
		t.Error("compress writes back dirty lines; write traffic must cost energy")
	}
	if withWrites.EnergyNJ <= plain.EnergyNJ {
		t.Error("write traffic must increase total energy")
	}

	bad := base
	bad.LeakNJPerCycleKB = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative leakage should be rejected")
	}
}

// With leakage on, larger caches get penalized harder: the minimum-energy
// configuration cannot grow.
func TestLeakageShrinksOptimum(t *testing.T) {
	o := smallOptions()
	base, err := Explore(kernels.Compress(), o)
	if err != nil {
		t.Fatal(err)
	}
	baseBest, _ := MinEnergy(base)

	o.Energy.LeakNJPerCycleKB = 0.05
	leaky, err := Explore(kernels.Compress(), o)
	if err != nil {
		t.Fatal(err)
	}
	leakyBest, _ := MinEnergy(leaky)
	if leakyBest.CacheSize > baseBest.CacheSize {
		t.Errorf("leakage grew the optimum: %s -> %s", baseBest.Label(), leakyBest.Label())
	}
}

func TestOptionsPolicyKnobs(t *testing.T) {
	o := smallOptions()
	o.CacheSizes = []int{64}
	o.LineSizes = []int{8}
	o.Assocs = []int{2}
	o.Tilings = []int{1}
	o.OptimizeLayout = false

	base, err := Explore(kernels.SOR(), o)
	if err != nil {
		t.Fatal(err)
	}

	// FIFO must change the outcome on this reuse-heavy kernel.
	fifo := o
	fifo.Replacement = cachesim.FIFO
	fifoMs, err := Explore(kernels.SOR(), fifo)
	if err != nil {
		t.Fatal(err)
	}
	if fifoMs[0].Misses == base[0].Misses {
		t.Error("FIFO should differ from LRU on SOR")
	}

	// A victim buffer must not increase misses.
	vic := o
	vic.VictimLines = 4
	vicMs, err := Explore(kernels.SOR(), vic)
	if err != nil {
		t.Fatal(err)
	}
	if vicMs[0].Misses > base[0].Misses {
		t.Error("victim buffer increased misses")
	}

	// Write-through / no-allocate run cleanly and keep accounting sane.
	wt := o
	wt.WriteThrough = true
	wt.NoWriteAllocate = true
	wtMs, err := Explore(kernels.SOR(), wt)
	if err != nil {
		t.Fatal(err)
	}
	if wtMs[0].Hits+wtMs[0].Misses != wtMs[0].Accesses {
		t.Errorf("accounting broken: %+v", wtMs[0])
	}

	bad := o
	bad.VictimLines = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative victim size should be rejected")
	}
}
