package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
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

	// Optimized layouts beyond Compress: on these kernels the §4.1 guard
	// keeps the padded plan for some workloads and the sequential layout
	// for others, so both outcomes of the shared-sequential-trace path run
	// against the per-point engine's independent Optimize + Generate.
	for _, name := range []string{"matmul", "sor", "mpeg_idct"} {
		kn, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.CacheSizes = []int{32, 256}
		opts.LineSizes = []int{4, 16}
		opts.Tilings = []int{1, 4}
		opts.Energy.CountWriteTraffic = true
		if seqWins, total := guardOutcomes(t, kn, opts); seqWins == 0 || seqWins == total {
			t.Fatalf("%s: the guard keeps the sequential layout for %d of %d workloads; want both outcomes", name, seqWins, total)
		}
		want, err := ExplorePerPointContext(context.Background(), kn, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("opt=true/kernel=%s/workers=%d", name, workers), func(t *testing.T) {
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

// guardOutcomes counts the optimized-layout workloads of opts for which
// the §4.1 guard keeps the sequential layout, out of all of them.
func guardOutcomes(t *testing.T, n *loopir.Nest, opts Options) (seqWins, total int) {
	t.Helper()
	for _, g := range groupWorkloads(opts, opts.Space()) {
		tn, err := loopir.TileAll(n, g.key.tiling)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := layout.Optimize(tn, g.key.lineBytes, g.key.sets)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if last := len(plan.Notes) - 1; last >= 0 && strings.HasPrefix(plan.Notes[last], "natural packed layout beats") {
			seqWins++
		}
	}
	return seqWins, total
}

// TestWorkloadCacheReleasesGroupTraces checks that a group's trace is
// dropped as soon as the group has run, while the sequential trace its
// tiling's optimized workloads start from stays for the rest of the sweep.
func TestWorkloadCacheReleasesGroupTraces(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheSizes = []int{32, 256}
	opts.LineSizes = []int{4, 16}
	opts.Tilings = []int{1}
	points := opts.Space()
	groups := groupWorkloads(opts, points)
	c := newWorkloadCache(kernels.MatMul())
	out := make([]Metrics, len(points))
	for _, g := range groups {
		if err := c.runWorkloadGroup(context.Background(), opts, points, g, out, 1); err != nil {
			t.Fatal(err)
		}
		if _, held := c.traces[g.key]; held {
			t.Errorf("workload %+v: trace still held after its group ran", g.key)
		}
	}
	if _, held := c.traces[traceKey{tiling: 1}]; !held {
		t.Error("sequential trace of tiling 1 released while the sweep could still need it")
	}
	if len(c.traces) != 1 {
		t.Errorf("cache holds %d traces after the sweep, want only the sequential one", len(c.traces))
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

// TestBatchedMatchesPerPointClassify checks the classified sweep too:
// Classify routes ExploreContext through the per-point engine, its
// points split across workers, so the results must agree at any worker
// count — this pins the routing.
func TestBatchedMatchesPerPointClassify(t *testing.T) {
	n := kernels.Compress()
	opts := DefaultOptions()
	opts.CacheSizes = []int{16, 64}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1, 2}
	opts.Tilings = []int{1, 4}
	opts.OptimizeLayout = false
	opts.Classify = true
	ctx := context.Background()
	want, err := ExplorePerPointContext(ctx, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		opts.Workers = workers
		got, err := ExploreContext(ctx, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("classified sweep at %d workers differs from reference", workers)
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
