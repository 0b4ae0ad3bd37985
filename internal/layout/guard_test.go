package layout

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// TestGuardMatchesTwoSimulations checks the guard's verdict on every
// registered kernel × tiling {1, 2, 4, 8, 16} × default (L, T/L)
// geometry against a reference computed here with two classified
// direct-mapped simulations: keep the sequential layout when it has
// fewer conflict misses than the padded plan, or as many and fewer
// misses. The guard counts the sequential side in one pass per line size
// and stops the plan's count early, so the verdicts must still agree.
// -short and -race keep one tiling per kernel.
func TestGuardMatchesTwoSimulations(t *testing.T) {
	tilings := []int{1, 2, 4, 8, 16}
	for ki, n := range kernels.All() {
		n := n
		bs := tilings
		if testing.Short() || raceEnabled {
			bs = tilings[ki%len(tilings) : ki%len(tilings)+1]
		}
		t.Run(n.Name, func(t *testing.T) {
			t.Parallel()
			for _, b := range bs {
				guardVerdicts(t, n, b)
			}
		})
	}
}

// guardVerdicts checks every default geometry of n tiled by b.
func guardVerdicts(t *testing.T, n *loopir.Nest, b int) {
	tn, err := loopir.TileAll(n, b)
	if err != nil {
		t.Fatal(err)
	}
	var geoms []Geometry
	for _, l := range []int{4, 8, 16, 32, 64} {
		for _, size := range []int{16, 32, 64, 128, 256, 512, 1024} {
			if l < size && b <= size/l {
				geoms = append(geoms, Geometry{l, size / l})
			}
		}
	}
	seq, err := NewSequential(tn, geoms)
	if err != nil {
		t.Fatal(err)
	}
	seqTr, err := seq.Trace()
	if err != nil {
		t.Fatal(err)
	}
	classes, err := seq.reuseClasses()
	if err != nil {
		t.Fatal(err)
	}
	seqLayout := loopir.SequentialLayout(tn, 0)
	for _, g := range geoms {
		plan, err := assign(tn, classes, g.LineBytes, g.Sets)
		if err != nil {
			t.Fatal(err)
		}
		planTr, err := tn.Generate(plan.Layout)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cachesim.DefaultConfig(g.Sets*g.LineBytes, g.LineBytes, 1)
		ps := runTrace(t, cfg, planTr)
		ss := runTrace(t, cfg, seqTr)
		want := plan.Layout
		if ss.ConflictMisses < ps.ConflictMisses || ss.ConflictMisses == ps.ConflictMisses && ss.Misses < ps.Misses {
			want = seqLayout
		}
		got, tr, err := OptimizeTrace(context.Background(), seq, g.LineBytes, g.Sets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Layout, want) {
			t.Errorf("B%d %+v: guard chose %v, two simulations %v (plan %d conflicts / %d misses, sequential %d / %d)",
				b, g, got.Layout, want, ps.ConflictMisses, ps.Misses, ss.ConflictMisses, ss.Misses)
		}
		if onSeq := reflect.DeepEqual(want, seqLayout); onSeq != (tr == seqTr) {
			t.Errorf("B%d %+v: returned the sequential trace = %v, want %v", b, g, tr == seqTr, onSeq)
		}
		seq.Release(tr)
	}
}

func runTrace(t *testing.T, cfg cachesim.Config, tr *trace.Trace) cachesim.Stats {
	t.Helper()
	st, err := cachesim.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSequentialConcurrentGuards runs the guards of every geometry of
// one Sequential from several goroutines at once, so that line sizes are
// counted concurrently, guards of one line size wait for its count and
// plan traces go back to the buffer pool and out again concurrently, and
// checks each verdict against a guard on a Sequential of its own.
func TestSequentialConcurrentGuards(t *testing.T) {
	n, err := kernels.ByName("sor")
	if err != nil {
		t.Fatal(err)
	}
	var geoms []Geometry
	for _, l := range []int{4, 8, 16, 32} {
		for _, sets := range []int{2, 4, 8, 16, 32} {
			geoms = append(geoms, Geometry{l, sets})
		}
	}
	seq, err := NewSequential(n, geoms)
	if err != nil {
		t.Fatal(err)
	}
	seqTr, err := seq.Trace()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Plan, len(geoms))
	errs := make([]error, len(geoms))
	var wg sync.WaitGroup
	for i, g := range geoms {
		wg.Add(1)
		go func(i int, g Geometry) {
			defer wg.Done()
			var tr *trace.Trace
			got[i], tr, errs[i] = OptimizeTrace(context.Background(), seq, g.LineBytes, g.Sets)
			if tr != nil && tr.Len() != seqTr.Len() {
				t.Errorf("%+v: %d references, the sequential trace has %d", g, tr.Len(), seqTr.Len())
			}
			seq.Release(tr)
		}(i, g)
	}
	wg.Wait()
	for i, g := range geoms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Optimize(n, g.LineBytes, g.Sets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%+v: concurrent guard chose %v, alone %v", g, got[i].Layout, want.Layout)
		}
	}
}
