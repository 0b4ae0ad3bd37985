package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"

	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
)

// pipelineTestOptions is a small mixed space: stack levels with several
// associativities per geometry and one-config levels; the FIFO and
// random policies below send the same space to the fallback batch.
func pipelineTestOptions() Options {
	opts := DefaultOptions()
	opts.CacheSizes = []int{32, 64, 128, 256}
	opts.LineSizes = []int{8, 16}
	opts.Assocs = []int{1, 2, 4}
	opts.Energy.CountWriteTraffic = true
	return opts
}

// TestPipelinedTraceSweepMatchesSequential pins the tentpole contract:
// the pipelined, group-parallel engine returns bit-identical metrics and
// ingest statistics to the exact sequential path, for worker counts
// below, at and far above the pass-unit count, across policies that
// exercise inclusion groups, pure batch fallback and per-cache RNG.
func TestPipelinedTraceSweepMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr := randomMixedTrace(rng, 40000, 8192) // several chunks (traceChunkRefs = 8192)
	var buf bytes.Buffer
	if _, err := extrace.WriteBinary(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
		opts := pipelineTestOptions()
		opts.Replacement = repl
		opts.Workers = 1
		wantMS, wantST, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			t.Run(fmt.Sprintf("repl=%v/workers=%d", repl, workers), func(t *testing.T) {
				opts := pipelineTestOptions()
				opts.Replacement = repl
				opts.Workers = workers
				ms, st, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, wantST) {
					t.Errorf("ingest stats diverge: %+v vs sequential %+v", st, wantST)
				}
				if !reflect.DeepEqual(ms, wantMS) {
					for i := range ms {
						if !reflect.DeepEqual(ms[i], wantMS[i]) {
							t.Fatalf("metrics[%d] diverges:\n parallel:   %+v\n sequential: %+v", i, ms[i], wantMS[i])
						}
					}
					t.Fatal("metrics diverge")
				}
			})
		}
	}
}

// TestPipelinedTraceSweepProperty is the randomized determinism check:
// random mixed-width traces, random sub-spaces, random policies and
// random worker counts (including workers ≫ pass units) must all match
// the sequential engine record-for-record. Run under -race by make check.
func TestPipelinedTraceSweepProperty(t *testing.T) {
	repls := []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 500+rng.Intn(20000), 1<<(10+rng.Intn(4)))
		var buf bytes.Buffer
		if _, err := extrace.WriteBinary(&buf, tr.Reader()); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()

		opts := DefaultOptions()
		opts.CacheSizes = [][]int{{32, 64}, {64, 128, 256}, {32, 128, 512}}[rng.Intn(3)]
		opts.LineSizes = [][]int{{8}, {8, 16}, {16, 32}}[rng.Intn(3)]
		opts.Assocs = [][]int{{1, 2}, {1, 2, 4}, {2, 8}}[rng.Intn(3)]
		opts.Replacement = repls[rng.Intn(len(repls))]
		opts.WriteThrough = rng.Intn(2) == 0
		workers := 2 + rng.Intn(31)

		opts.Workers = 1
		wantMS, wantST, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = workers
		ms, st, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != wantST.Records || !reflect.DeepEqual(st, wantST) {
			t.Errorf("seed %d workers %d: ingest stats diverge: %+v vs %+v", seed, workers, st, wantST)
		}
		if !reflect.DeepEqual(ms, wantMS) {
			t.Errorf("seed %d workers %d (repl=%v): metrics diverge from sequential", seed, workers, opts.Replacement)
		}
	}
}

// TestExploreTraceReaderReleasesOnError is the regression test for the
// pooled-array leak: sweep.Release must run on every path — read error,
// cancellation, empty trace — not only on success. FIFO replacement
// forces every configuration onto the pooled batch fallback, so each
// teardown must return at least len(Space()) line arrays to the pool.
func TestExploreTraceReaderReleasesOnError(t *testing.T) {
	opts := pipelineTestOptions()
	opts.Replacement = cachesim.FIFO // every config is a pooled fallback cache
	topts, err := traceSpace(opts)
	if err != nil {
		t.Fatal(err)
	}
	minPuts := uint64(len(topts.Space()))
	if minPuts == 0 {
		t.Fatal("test space is empty")
	}

	var valid bytes.Buffer
	if _, err := extrace.WriteBinary(&valid, randomMixedTrace(rand.New(rand.NewSource(5)), 300, 2048).Reader()); err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("boom")
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		ctx     context.Context
		body    io.Reader
		workers int
		wantErr error
	}{
		{"read error sequential", context.Background(),
			io.MultiReader(bytes.NewReader(valid.Bytes()), iotest.ErrReader(errBoom)), 1, errBoom},
		{"read error pipelined", context.Background(),
			io.MultiReader(bytes.NewReader(valid.Bytes()), iotest.ErrReader(errBoom)), 4, errBoom},
		{"canceled sequential", canceledCtx, bytes.NewReader(valid.Bytes()), 1, ErrCanceled},
		{"canceled pipelined", canceledCtx, bytes.NewReader(valid.Bytes()), 4, ErrCanceled},
		{"empty trace", context.Background(), bytes.NewReader(nil), 1, ErrEmptyTrace},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := opts
			opts.Workers = tc.workers
			before := cachesim.PoolPuts()
			_, _, err := ExploreTraceReader(tc.ctx, tc.body, opts, extrace.Options{})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
			if delta := cachesim.PoolPuts() - before; delta < minPuts {
				t.Errorf("only %d line arrays returned to the pool, want ≥ %d (Release skipped?)", delta, minPuts)
			}
		})
	}
}

// TestTraceSweepPlanShards pins the plan's shard report: the partition
// covers every pass unit, collapses to one shard for Workers=1, and
// never exceeds the worker count.
func TestTraceSweepPlanShards(t *testing.T) {
	opts := pipelineTestOptions()
	for _, workers := range []int{1, 2, 5, 100} {
		opts.Workers = workers
		plan, err := TraceSweepPlan(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Shards) == 0 {
			t.Fatalf("workers=%d: plan reports no shards", workers)
		}
		if workers == 1 && len(plan.Shards) != 1 {
			t.Errorf("workers=1: plan reports %d shards", len(plan.Shards))
		}
		if len(plan.Shards) > workers {
			t.Errorf("workers=%d: plan reports %d shards", workers, len(plan.Shards))
		}
		total := 0
		for _, u := range plan.Shards {
			if u == 0 {
				t.Errorf("workers=%d: empty shard in %v", workers, plan.Shards)
			}
			total += u
		}
		if total != plan.PassUnits() {
			t.Errorf("workers=%d: shards %v cover %d units, plan has %d", workers, plan.Shards, total, plan.PassUnits())
		}
	}
}

// TestFanBudgets pins the spare-worker split: one worker per group
// minimum, surplus proportional to pass-unit counts, total preserved.
func TestFanBudgets(t *testing.T) {
	cases := []struct {
		units   []int
		workers int
		want    []int
	}{
		{[]int{10}, 8, []int{8}},
		{[]int{3, 1}, 2, []int{1, 1}},
		{[]int{3, 1}, 6, []int{4, 2}},
		{[]int{5, 5, 2}, 3, []int{1, 1, 1}},
		{[]int{0, 0}, 5, []int{1, 1}}, // degenerate: no units, base budgets only
	}
	for _, tc := range cases {
		got := fanBudgets(tc.units, tc.workers)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("fanBudgets(%v, %d) = %v, want %v", tc.units, tc.workers, got, tc.want)
		}
	}
	// Totals are preserved whenever workers ≥ groups.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(6)
		units := make([]int, n)
		for j := range units {
			units[j] = 1 + rng.Intn(20)
		}
		workers := n + rng.Intn(20)
		got := fanBudgets(units, workers)
		sum := 0
		for _, b := range got {
			sum += b
		}
		if sum != workers {
			t.Fatalf("fanBudgets(%v, %d) = %v sums to %d", units, workers, got, sum)
		}
	}
}

// TestSingleGroupFanoutMatchesSequential pins the in-memory fan-out: a
// sweep whose space collapses to ONE workload group (sequential layout,
// single tiling) used to serialize under any worker count; now the spare
// workers shard its pass units. Results must stay bit-identical.
func TestSingleGroupFanoutMatchesSequential(t *testing.T) {
	n := kernels.Compress()
	opts := pipelineTestOptions()
	opts.Tilings = []int{1}
	opts.OptimizeLayout = false // one workload group for the whole space
	if g := groupWorkloads(opts, opts.Space()); len(g) != 1 {
		t.Fatalf("test space has %d workload groups, want 1", len(g))
	}
	want, err := ExploreContext(context.Background(), n, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 33} {
		got, err := ExploreParallelContext(context.Background(), n, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: single-group fan-out diverges from sequential", workers)
		}
	}
}
