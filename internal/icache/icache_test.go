package icache

import (
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/kernels"
	"memexplore/internal/trace"
)

func TestCodeGenValidate(t *testing.T) {
	if err := DefaultCodeGen().Validate(); err != nil {
		t.Fatalf("default code model invalid: %v", err)
	}
	bad := []func(*CodeGen){
		func(g *CodeGen) { g.InstrBytes = 0 },
		func(g *CodeGen) { g.BodyInstrsPerRef = 0 },
		func(g *CodeGen) { g.LoopOverhead = 0 },
		func(g *CodeGen) { g.BodyOverhead = -1 },
	}
	for i, mutate := range bad {
		g := DefaultCodeGen()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate", i)
		}
	}
}

func TestCodeBytes(t *testing.T) {
	g := DefaultCodeGen()
	n := kernels.Compress() // 2 loops, 5 body refs
	got, err := CodeBytes(n, g)
	if err != nil {
		t.Fatal(err)
	}
	want := (2*3 + 5*3 + 4) * 4 // headers + body, 4 bytes each
	if got != want {
		t.Errorf("code bytes = %d, want %d", got, want)
	}
	if _, err := CodeBytes(n, CodeGen{}); err == nil {
		t.Error("zero code model should fail")
	}
}

func TestFetchTraceShape(t *testing.T) {
	g := DefaultCodeGen()
	n := kernels.Compress()
	tr, err := FetchTrace(n, g)
	if err != nil {
		t.Fatal(err)
	}
	// Every reference is a fetch inside the code segment.
	for i := 0; i < tr.Len(); i++ {
		r := tr.At(i)
		if r.Kind != trace.Fetch {
			t.Fatalf("ref %d kind = %v", i, r.Kind)
		}
		if r.Addr < g.BaseAddr {
			t.Fatalf("ref %d addr %#x below code base", i, r.Addr)
		}
	}
	// Expected volume: outer loop 31 iterations × header, inner 961 ×
	// header, body 961 × (5·3+4).
	want := 31*g.LoopOverhead + 961*g.LoopOverhead + 961*(5*g.BodyInstrsPerRef+g.BodyOverhead)
	if tr.Len() != want {
		t.Errorf("fetch count = %d, want %d", tr.Len(), want)
	}
}

func TestLoopCodeIsCacheResident(t *testing.T) {
	// The whole point of small loop kernels: once the loop body fits, the
	// I-cache miss rate collapses to compulsory only.
	g := DefaultCodeGen()
	n := kernels.Compress()
	tr, err := FetchTrace(n, g)
	if err != nil {
		t.Fatal(err)
	}
	code, err := CodeBytes(n, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.DefaultConfig(256, 16, 1) // 256 ≥ code size
	cfg.Classify = true
	if code > 256 {
		t.Fatalf("test assumption broken: code %d bytes", code)
	}
	st, err := cachesim.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != st.CompulsoryMisses {
		t.Errorf("resident code should only miss cold: %+v", st)
	}
	if st.MissRate() > 0.001 {
		t.Errorf("resident code miss rate %v too high", st.MissRate())
	}
}

func icacheOpts() core.Options {
	o := core.DefaultOptions()
	o.CacheSizes = []int{16, 32, 64, 128, 256}
	o.LineSizes = []int{4, 8, 16}
	o.Assocs = []int{1, 2}
	o.Tilings = []int{1}
	return o
}

func TestExplore(t *testing.T) {
	ms, err := Explore(kernels.Compress(), DefaultCodeGen(), icacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no metrics")
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m.Tiling != 1 {
			t.Errorf("icache sweep must not tile: %+v", m)
		}
		if seen[m.Label()] {
			t.Errorf("duplicate point %s", m.Label())
		}
		seen[m.Label()] = true
		if m.Accesses == 0 || m.EnergyNJ <= 0 || m.Cycles <= 0 {
			t.Errorf("degenerate metrics %+v", m)
		}
	}
	// Min-energy I-cache for a tiny loop should be small (code ≈ 100 B).
	minE, ok := core.MinEnergy(ms)
	if !ok {
		t.Fatal("no optimum")
	}
	if minE.CacheSize > 128 {
		t.Errorf("min-energy I-cache suspiciously large: %s", minE.Label())
	}
	if minE.MissRate > 0.01 {
		t.Errorf("loop code should be nearly resident at the optimum: %v", minE.MissRate)
	}
}

func TestExploreJoint(t *testing.T) {
	instr, err := Explore(kernels.Compress(), DefaultCodeGen(), icacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.Explore(kernels.Compress(), icacheOpts())
	if err != nil {
		t.Fatal(err)
	}

	unbounded, ok := ExploreJoint(instr, data, 0)
	if !ok {
		t.Fatal("unbounded joint exploration failed")
	}
	iBest, _ := core.MinEnergy(instr)
	dBest, _ := core.MinEnergy(data)
	if unbounded.TotalEnergy() != iBest.EnergyNJ+dBest.EnergyNJ {
		t.Errorf("unbounded joint energy %v, want %v",
			unbounded.TotalEnergy(), iBest.EnergyNJ+dBest.EnergyNJ)
	}

	// A tight budget must force a pair that fits and costs no less.
	budget := 64
	tight, ok := ExploreJoint(instr, data, budget)
	if !ok {
		t.Fatal("tight joint exploration failed")
	}
	if tight.TotalSize() > budget {
		t.Errorf("pair exceeds budget: %d > %d", tight.TotalSize(), budget)
	}
	if tight.TotalEnergy() < unbounded.TotalEnergy()-1e-9 {
		t.Error("bounded optimum cannot beat unbounded")
	}
	if tight.TotalCycles() <= 0 {
		t.Error("joint cycles degenerate")
	}

	// Impossible budget.
	if _, ok := ExploreJoint(instr, data, 8); ok {
		t.Error("budget below the smallest pair should fail")
	}
	if _, ok := ExploreJoint(nil, data, 0); ok {
		t.Error("empty instruction sweep should fail")
	}
}
