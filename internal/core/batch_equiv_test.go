package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/kernels"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
)

// TestBatchedMatchesPerPoint pins the tentpole invariant: the
// workload-grouped engine — stack levels for LRU write-allocate caches
// without a victim buffer, fallback caches for everything else — returns
// bit-identical metrics to the per-point reference engine for every
// layout/policy combination, in the same Space() order, at one worker
// and at four. Write traffic is charged into the energy model so a
// write-back accounting bug cannot hide.
func TestBatchedMatchesPerPoint(t *testing.T) {
	n := kernels.Compress()
	base := DefaultOptions()
	base.CacheSizes = []int{16, 64, 256}
	base.LineSizes = []int{4, 8}
	base.Assocs = []int{1, 2, 4}
	base.Tilings = []int{1, 4}
	base.Energy.CountWriteTraffic = true

	for _, optimized := range []bool{false, true} {
		for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
			for _, writeThrough := range []bool{false, true} {
				for _, noWriteAlloc := range []bool{false, true} {
					for _, victim := range []int{0, 2} {
						opts := base
						opts.OptimizeLayout = optimized
						opts.Replacement = repl
						opts.WriteThrough = writeThrough
						opts.NoWriteAllocate = noWriteAlloc
						opts.VictimLines = victim
						name := fmt.Sprintf("opt=%v/repl=%v/wt=%v/nwa=%v/victim=%d",
							optimized, repl, writeThrough, noWriteAlloc, victim)
						t.Run(name, func(t *testing.T) {
							ctx := context.Background()
							want, err := ExplorePerPointContext(ctx, n, opts)
							if err != nil {
								t.Fatal(err)
							}
							for _, workers := range []int{1, 4} {
								wopts := opts
								wopts.Workers = workers
								got, err := ExploreContext(ctx, n, wopts)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Errorf("batched metrics at %d workers differ from per-point reference", workers)
									reportFirstDiff(t, got, want)
								}
							}
						})
					}
				}
			}
		}
	}

	// Optimized layouts beyond Compress. On the first three kernels the
	// §4.1 guard hands some workloads the sequential trace, which they
	// sweep in their tiling's shared pass, and keeps padded plans for
	// the others; on dequant every workload keeps its plan. Both paths
	// run against the per-point engine's independent Optimize + Generate.
	for _, c := range []struct {
		name  string
		share bool // some workloads, but not all, sweep the sequential trace
	}{{"matmul", true}, {"sor", true}, {"mpeg_idct", true}, {"dequant", false}} {
		kn, err := kernels.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.CacheSizes = []int{32, 256}
		opts.LineSizes = []int{4, 16}
		opts.Tilings = []int{1, 4}
		opts.Energy.CountWriteTraffic = true
		onSeq, total := guardOutcomes(t, kn, opts)
		if c.share && (onSeq == 0 || onSeq == total) || !c.share && onSeq > 0 {
			t.Fatalf("%s: %d of %d workloads sweep the sequential trace", c.name, onSeq, total)
		}
		want, err := ExplorePerPointContext(context.Background(), kn, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("opt=true/kernel=%s/workers=%d", c.name, workers), func(t *testing.T) {
				wopts := opts
				wopts.Workers = workers
				got, err := ExploreContext(context.Background(), kn, wopts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("batched metrics differ from per-point reference")
					reportFirstDiff(t, got, want)
				}
			})
		}
	}
}

// guardOutcomes counts the optimized-layout workloads of opts whose §4.1
// guard hands back the sequential trace, out of all of them.
func guardOutcomes(t *testing.T, n *loopir.Nest, opts Options) (onSeq, total int) {
	t.Helper()
	seqs := map[int]*layout.Sequential{}
	for _, g := range groupWorkloads(opts, opts.Space()) {
		seq := seqs[g.key.tiling]
		if seq == nil {
			tn, err := loopir.TileAll(n, g.key.tiling)
			if err != nil {
				t.Fatal(err)
			}
			if seq, err = layout.NewSequential(tn, nil); err != nil {
				t.Fatal(err)
			}
			seqs[g.key.tiling] = seq
		}
		seqTr, err := seq.Trace()
		if err != nil {
			t.Fatal(err)
		}
		_, tr, err := layout.OptimizeTrace(context.Background(), seq, g.key.lineBytes, g.key.sets)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if tr == seqTr {
			onSeq++
		}
		seq.Release(tr)
	}
	return onSeq, total
}

// TestWorkloadCacheReleasesGroupTraces checks that a tiling's shared
// state — its sequential trace and the guard's counts of it — stays while
// any of its groups has yet to settle and is dropped once the last one
// has run, and that every group of the sweep runs exactly once.
func TestWorkloadCacheReleasesGroupTraces(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheSizes = []int{32, 256}
	opts.LineSizes = []int{4, 16}
	opts.Tilings = []int{1, 2}
	points := opts.Space()
	groups := groupWorkloads(opts, points)
	c := newWorkloadCache(kernels.MatMul(), groups)
	out := make([]Metrics, len(points))
	left := map[int]int{}
	for _, g := range groups {
		left[g.key.tiling]++
	}
	for _, g := range groups {
		if err := c.runWorkloadGroup(context.Background(), opts, points, g, out, 1); err != nil {
			t.Fatal(err)
		}
		left[g.key.tiling]--
		_, held := c.tilings[g.key.tiling]
		if want := left[g.key.tiling] > 0; held != want {
			t.Errorf("workload %+v: tiling state held = %v with %d groups left", g.key, held, left[g.key.tiling])
		}
	}
	if len(c.tilings) != 0 {
		t.Errorf("cache holds %d tilings after the sweep, want none", len(c.tilings))
	}
	for i, m := range out {
		if m.Accesses == 0 {
			t.Errorf("point %v never ran", points[i])
		}
	}
}

func reportFirstDiff(t *testing.T, got, want []Metrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Logf("length %d, want %d", len(got), len(want))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Logf("first difference at point %d:\n got %+v\nwant %+v", i, got[i], want[i])
			return
		}
	}
}

// TestBatchedMatchesPerPointClassify checks the classified sweep: the
// batched engine gives every point a classifying fallback cache, and its
// metrics, conflict misses included, must equal the per-point oracle's
// under sequential and optimized layouts, LRU and FIFO, with and without
// a victim buffer, at 1, 2 and 4 workers — as many workers as workload
// groups, and more.
func TestBatchedMatchesPerPointClassify(t *testing.T) {
	n := kernels.Compress()
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		optimized bool
		repl      cachesim.Replacement
		victim    int
	}{
		{"sequential", false, cachesim.LRU, 0},
		{"optimized", true, cachesim.LRU, 0},
		{"fifo", true, cachesim.FIFO, 0},
		{"victim", false, cachesim.LRU, 2},
	} {
		opts := DefaultOptions()
		opts.CacheSizes = []int{16, 64}
		opts.LineSizes = []int{4, 8}
		opts.Assocs = []int{1, 2}
		opts.Tilings = []int{1, 4}
		opts.OptimizeLayout = tc.optimized
		opts.Replacement = tc.repl
		opts.VictimLines = tc.victim
		opts.Classify = true
		want, err := ExplorePerPointContext(ctx, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		var conflicts uint64
		for _, m := range want {
			conflicts += m.ConflictMisses
		}
		if conflicts == 0 {
			t.Fatalf("%s: the oracle counts no conflict misses", tc.name)
		}
		for _, workers := range []int{1, 2, 4} {
			opts.Workers = workers
			got, err := ExploreContext(ctx, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: classified sweep at %d workers differs from the per-point oracle", tc.name, workers)
			}
		}
	}
}

// TestWorkloads pins the workload count arithmetic the service metrics
// report: a sequential-layout space collapses to one workload per tiling;
// an optimized-layout space keys on (tiling, line, sets) as well.
func TestWorkloads(t *testing.T) {
	opts := DefaultOptions()
	opts.OptimizeLayout = false
	if got, want := opts.Workloads(), len(opts.Tilings); got != want {
		t.Errorf("sequential workloads = %d, want %d (one per tiling)", got, want)
	}
	opts.OptimizeLayout = true
	points := opts.Space()
	seen := map[[3]int]bool{}
	for _, p := range points {
		seen[[3]int{p.Tiling, p.LineSize, p.CacheSize / p.LineSize}] = true
	}
	if got := opts.Workloads(); got != len(seen) {
		t.Errorf("optimized workloads = %d, want %d", got, len(seen))
	}
	if got := opts.Workloads(); got >= len(points) {
		t.Errorf("grouping saved nothing: %d workloads for %d points", got, len(points))
	}
}
