package layout

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"memexplore/internal/cachesim"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

func TestOptimizeArgs(t *testing.T) {
	if _, err := Optimize(kernels.Compress(), 0, 8); err == nil {
		t.Error("line size 0 should fail")
	}
	if _, err := Optimize(kernels.Compress(), 4, 0); err == nil {
		t.Error("0 sets should fail")
	}
	bad := &loopir.Nest{Name: "bad"}
	if _, err := Optimize(bad, 4, 8); err == nil {
		t.Error("invalid nest should fail")
	}
}

// The paper's §4.1 Compress example: cache of 8 bytes with 2-byte lines
// (4 sets). The natural row stride of 32 puts class 2's leader a[1][0] in
// the same set as class 1's a[0][0]; the paper pads it to 36 so it lands
// two cache lines away.
func TestCompressPaperExample(t *testing.T) {
	n := kernels.Compress()
	plan, err := Optimize(n, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %v", plan.Notes)
	}
	p := plan.Layout["a"]
	if p.StrideBytes == nil {
		t.Fatal("expected a padded row stride")
	}
	if p.StrideBytes[0] != 36 {
		t.Errorf("row stride = %d, want 36 (the paper's padded address)", p.StrideBytes[0])
	}
	if len(plan.Slots) != 2 {
		t.Fatalf("slots = %+v", plan.Slots)
	}
	// Two-line windows two lines apart.
	d := ((plan.Slots[1].StartSet-plan.Slots[0].StartSet)%4 + 4) % 4
	if d != 2 {
		t.Errorf("class separation = %d sets, want 2", d)
	}
	if v := plan.Verify(); len(v) != 0 {
		t.Errorf("verify found overlaps: %+v", v)
	}
}

// The §4.1 Matrix Addition example: three arrays with the same access
// pattern must land on three different cache lines. The paper's worked
// assignment stores a at 0–35, b from 38, c from 76 (line size 2, 3+
// lines). Our planner reproduces the set separation (the exact bases may
// differ by a whole number of cache periods).
func TestMatAddAssignment(t *testing.T) {
	n := kernels.MatAdd()
	plan, err := Optimize(n, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("infeasible: %v", plan.Notes)
	}
	sets := map[int]bool{}
	for _, s := range plan.Slots {
		if sets[s.StartSet] {
			t.Errorf("two classes share start set %d: %+v", s.StartSet, plan.Slots)
		}
		sets[s.StartSet] = true
	}
	if v := plan.Verify(); len(v) != 0 {
		t.Errorf("verify found overlaps: %+v", v)
	}
	// Bases must be non-overlapping in memory and ordered.
	a, b, c := plan.Layout["a"], plan.Layout["b"], plan.Layout["c"]
	arrA, _ := n.Array("a")
	arrB, _ := n.Array("b")
	if b.Base < a.Base+uint64(a.FootprintBytes(arrA)) {
		t.Errorf("b (base %d) overlaps a (end %d)", b.Base, a.Base+uint64(a.FootprintBytes(arrA)))
	}
	if c.Base < b.Base+uint64(b.FootprintBytes(arrB)) {
		t.Errorf("c overlaps b")
	}
}

// The headline §4.1 claim (Figure 5): for a compatible kernel the
// optimized layout eliminates conflict misses — exactly when the cache can
// hold the live data, and down to a sliver (never worse than sequential)
// when live rows exceed the cache, where even a fully associative cache
// cannot avoid the evictions. Verify with the simulator across the paper's
// Figure 5 configurations.
func TestOptimizedLayoutEliminatesConflictMisses(t *testing.T) {
	cfgs := []cachesim.Config{
		cachesim.DefaultConfig(32, 4, 1),
		cachesim.DefaultConfig(64, 8, 1),
		cachesim.DefaultConfig(128, 16, 1),
	}
	for _, kern := range []*loopir.Nest{kernels.Compress(), kernels.MatAdd(), kernels.Dequant(), kernels.SOR(), kernels.PDE()} {
		for _, cfg := range cfgs {
			plan, err := Optimize(kern, cfg.LineBytes, cfg.NumSets())
			if err != nil {
				t.Fatalf("%s %v: %v", kern.Name, cfg, err)
			}
			if !plan.Feasible {
				// Small caches may simply not fit every class; skip those.
				continue
			}
			tr, err := kern.Generate(plan.Layout)
			if err != nil {
				t.Fatalf("%s: %v", kern.Name, err)
			}
			st, err := runClassified(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			seqTr, err := kern.Generate(loopir.SequentialLayout(kern, 0))
			if err != nil {
				t.Fatal(err)
			}
			seq, err := runClassified(cfg, seqTr)
			if err != nil {
				t.Fatal(err)
			}
			frac := float64(st.ConflictMisses) / float64(st.Accesses)
			if frac > 0.01 {
				t.Errorf("%s on %v: %d conflict misses (%.2f%%) with optimized layout (plan notes: %v)",
					kern.Name, cfg, st.ConflictMisses, 100*frac, plan.Notes)
			}
			if st.ConflictMisses > seq.ConflictMisses {
				t.Errorf("%s on %v: optimized conflicts %d exceed sequential %d",
					kern.Name, cfg, st.ConflictMisses, seq.ConflictMisses)
			}
		}
	}
}

// Kernels whose live working set fits the cache must reach exactly zero
// conflict misses under the optimized layout.
func TestOptimizedLayoutExactZeroConflicts(t *testing.T) {
	cases := []struct {
		kern *loopir.Nest
		cfg  cachesim.Config
	}{
		{kernels.Compress(), cachesim.DefaultConfig(32, 4, 1)},
		{kernels.Compress(), cachesim.DefaultConfig(64, 8, 1)},
		{kernels.Compress(), cachesim.DefaultConfig(128, 16, 1)},
		{kernels.MatAdd(), cachesim.DefaultConfig(32, 4, 1)},
		{kernels.Dequant(), cachesim.DefaultConfig(64, 8, 1)},
	}
	for _, c := range cases {
		plan, err := Optimize(c.kern, c.cfg.LineBytes, c.cfg.NumSets())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.kern.Generate(plan.Layout)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runClassified(c.cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if st.ConflictMisses != 0 {
			t.Errorf("%s on %v: %d conflict misses, want 0 (notes: %v)",
				c.kern.Name, c.cfg, st.ConflictMisses, plan.Notes)
		}
	}
}

// Figure 5's other half: the optimized layout must beat the sequential one
// on miss rate for Compress (where the sequential layout conflicts badly).
func TestOptimizedBeatsSequentialForCompress(t *testing.T) {
	n := kernels.Compress()
	for _, cfg := range []cachesim.Config{
		cachesim.DefaultConfig(32, 4, 1),
		cachesim.DefaultConfig(64, 8, 1),
		cachesim.DefaultConfig(128, 16, 1),
	} {
		plan, err := Optimize(n, cfg.LineBytes, cfg.NumSets())
		if err != nil {
			t.Fatal(err)
		}
		optTr, err := n.Generate(plan.Layout)
		if err != nil {
			t.Fatal(err)
		}
		seqTr, err := n.Generate(loopir.SequentialLayout(n, 0))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := runClassified(cfg, optTr)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := runClassified(cfg, seqTr)
		if err != nil {
			t.Fatal(err)
		}
		if opt.MissRate() > seq.MissRate() {
			t.Errorf("%v: optimized miss rate %.4f worse than sequential %.4f",
				cfg, opt.MissRate(), seq.MissRate())
		}
	}
}

func TestInfeasiblePlanIsFlagged(t *testing.T) {
	// A 2-set cache cannot give Compress's 4 windows private slots.
	plan, err := Optimize(kernels.Compress(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Error("plan should be infeasible with 2 sets")
	}
	found := false
	for _, note := range plan.Notes {
		if strings.Contains(note, "wrap") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes should explain the wrap: %v", plan.Notes)
	}
	// The layout must still be usable.
	if _, err := kernels.Compress().Generate(plan.Layout); err != nil {
		t.Errorf("best-effort layout unusable: %v", err)
	}
}

func TestUnreferencedArrayPlaced(t *testing.T) {
	n := &loopir.Nest{
		Name: "extra",
		Arrays: []loopir.Array{
			{Name: "a", Dims: []int{16}},
			{Name: "unused", Dims: []int{16}},
		},
		Loops: []loopir.Loop{loopir.ConstLoop("i", 0, 15)},
		Body:  []loopir.Ref{loopir.Read("a", loopir.Var("i"))},
	}
	plan, err := Optimize(n, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Layout["unused"]; !ok {
		t.Error("unreferenced array missing from layout")
	}
}

func TestWindowsOverlap(t *testing.T) {
	cases := []struct {
		a, b ClassSlot
		sets int
		want bool
	}{
		{ClassSlot{StartSet: 0, Width: 2}, ClassSlot{StartSet: 2, Width: 2}, 8, false},
		{ClassSlot{StartSet: 0, Width: 3}, ClassSlot{StartSet: 2, Width: 2}, 8, true},
		{ClassSlot{StartSet: 6, Width: 3}, ClassSlot{StartSet: 0, Width: 1}, 8, true}, // wraps
		{ClassSlot{StartSet: 6, Width: 2}, ClassSlot{StartSet: 0, Width: 2}, 8, false},
		{ClassSlot{StartSet: 0, Width: 8}, ClassSlot{StartSet: 4, Width: 1}, 8, true}, // full
	}
	for i, c := range cases {
		if got := windowsOverlap(c.a, c.b, c.sets); got != c.want {
			t.Errorf("case %d: overlap = %v, want %v", i, got, c.want)
		}
		if got := windowsOverlap(c.b, c.a, c.sets); got != c.want {
			t.Errorf("case %d (swapped): overlap = %v, want %v", i, got, c.want)
		}
	}
}

// Property: for randomly generated 2D stencil kernels (random row offsets,
// random array counts), the optimized layout never produces more conflict
// misses than the sequential layout, at any of several geometries.
func TestQuickRandomStencilsNeverWorse(t *testing.T) {
	geometries := []cachesim.Config{
		cachesim.DefaultConfig(32, 4, 1),
		cachesim.DefaultConfig(64, 8, 1),
		cachesim.DefaultConfig(128, 8, 1),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kern := randomStencil(rng)
		if err := kern.Validate(); err != nil {
			return false
		}
		for _, cfg := range geometries {
			plan, err := Optimize(kern, cfg.LineBytes, cfg.NumSets())
			if err != nil {
				t.Logf("optimize: %v", err)
				return false
			}
			optTr, err := kern.Generate(plan.Layout)
			if err != nil {
				t.Logf("generate opt: %v", err)
				return false
			}
			seqTr, err := kern.Generate(loopir.SequentialLayout(kern, 0))
			if err != nil {
				return false
			}
			opt, err := runClassified(cfg, optTr)
			if err != nil {
				return false
			}
			seq, err := runClassified(cfg, seqTr)
			if err != nil {
				return false
			}
			if opt.ConflictMisses > seq.ConflictMisses {
				t.Logf("seed %d kernel %s on %v: opt conflicts %d > seq %d\nnotes: %v",
					seed, kern.Name, cfg, opt.ConflictMisses, seq.ConflictMisses, plan.Notes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomStencil builds a small 2D stencil nest with 1-2 arrays, random
// extents and random in-bounds offsets.
func randomStencil(rng *rand.Rand) *loopir.Nest {
	rows := 16 + rng.Intn(3)*8 // 16, 24, 32
	cols := 16 + rng.Intn(3)*8
	arrays := []loopir.Array{{Name: "a", Dims: []int{rows, cols}}}
	nArr := 1 + rng.Intn(2)
	if nArr == 2 {
		arrays = append(arrays, loopir.Array{Name: "b", Dims: []int{rows, cols}})
	}
	margin := 2
	n := &loopir.Nest{
		Name:   "randstencil",
		Arrays: arrays,
		Loops: []loopir.Loop{
			loopir.ConstLoop("i", margin, rows-1-margin),
			loopir.ConstLoop("j", margin, cols-1-margin),
		},
	}
	nRefs := 2 + rng.Intn(4)
	for k := 0; k < nRefs; k++ {
		di := rng.Intn(2*margin+1) - margin
		dj := rng.Intn(2*margin+1) - margin
		arr := arrays[rng.Intn(len(arrays))].Name
		n.Body = append(n.Body, loopir.Read(arr,
			loopir.Affine(di, "i", 1), loopir.Affine(dj, "j", 1)))
	}
	// Always end with a write to the first array's center.
	n.Body = append(n.Body, loopir.Store("a", loopir.Var("i"), loopir.Var("j")))
	return n
}
