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
	"memexplore/internal/loopir"
)

// pipelineTestOptions is a small mixed space: stack levels with several
// associativities per geometry and one-config levels; the FIFO and
// random policies below send the same space to the fallback caches.
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
// random mixed-width bodies of at least three epochs and random
// sub-spaces, under each write policy and replacement (LRU runs on the
// range executor, FIFO and random on the pass-unit fan-out) and each
// filter mode — exact, sampled and
// dominant-filtered — must match the sequential engine record for
// record at workers 2–4. Run under -race by make check.
func TestPipelinedTraceSweepProperty(t *testing.T) {
	policies := []struct {
		repl         cachesim.Replacement
		writeThrough bool
	}{{cachesim.LRU, false}, {cachesim.LRU, true}, {cachesim.FIFO, false}, {cachesim.Random, true}}
	modes := []struct {
		name    string
		rate    float64
		eps     float64
		minRefs int // body length that keeps ≥ 3 epochs after filtering
	}{
		{"exact", 0, 0, 3 * rangeEpochRefs},
		{"sampled", 0.5, 0, 7 * rangeEpochRefs},
		{"dominant", 0, 0.05, 4 * rangeEpochRefs},
	}
	for seed := int64(1); seed <= int64(len(policies)); seed++ {
		for _, mode := range modes {
			rng := rand.New(rand.NewSource(seed))
			n := mode.minRefs + rng.Intn(rangeEpochRefs)
			// Small spans keep lines resident across epoch boundaries.
			tr := randomMixedTrace(rng, n, 1<<(9+rng.Intn(3)))
			var buf bytes.Buffer
			if _, err := extrace.WriteBinary(&buf, tr.Reader()); err != nil {
				t.Fatal(err)
			}
			encoded := buf.Bytes()

			opts := DefaultOptions()
			opts.CacheSizes = [][]int{{32, 64}, {64, 128, 256}, {32, 128, 512}}[rng.Intn(3)]
			opts.LineSizes = [][]int{{8}, {8, 16}, {16, 32}}[rng.Intn(3)]
			opts.Assocs = [][]int{{1, 2}, {1, 2, 4}, {2, 8}}[rng.Intn(3)]
			opts.Replacement = policies[seed-1].repl
			opts.WriteThrough = policies[seed-1].writeThrough
			opts.Energy.CountWriteTraffic = true // write-backs reach the metrics
			opts.SampleRate, opts.SampleSeed, opts.DominantEps = mode.rate, uint64(seed), mode.eps

			opts.Workers = 1
			wantMS, wantST, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if simulated := wantMS[0].SampledRecords; mode.name != "exact" && simulated < 3*rangeEpochRefs {
				t.Fatalf("seed %d %s: only %d records simulated, want ≥ 3 epochs", seed, mode.name, simulated)
			}
			for workers := 2; workers <= 4; workers++ {
				opts.Workers = workers
				// A non-seekable stream, except for the dominant filter's
				// two reads.
				var body io.Reader = iotest.HalfReader(bytes.NewReader(encoded))
				if mode.eps > 0 {
					body = bytes.NewReader(encoded)
				}
				ms, st, err := ExploreTraceReader(context.Background(), body, opts, extrace.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, wantST) {
					t.Errorf("seed %d %s workers %d: ingest stats diverge: %+v vs %+v", seed, mode.name, workers, st, wantST)
				}
				if !reflect.DeepEqual(ms, wantMS) {
					t.Errorf("seed %d %s workers %d (repl=%v): metrics diverge from sequential", seed, mode.name, workers, opts.Replacement)
				}
			}
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

// TestTraceSweepPlanShards pins the plan's shard report: a stack sweep
// splits in time ranges and reports no shards at any worker count; a
// fallback sweep at more than one worker reports a partition that covers
// every pass unit and never exceeds the worker count.
func TestTraceSweepPlanShards(t *testing.T) {
	for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO} {
		opts := pipelineTestOptions()
		opts.Replacement = repl
		for _, workers := range []int{1, 2, 5, 100} {
			opts.Workers = workers
			plan, err := TraceSweepPlan(opts)
			if err != nil {
				t.Fatal(err)
			}
			if repl == cachesim.LRU || workers == 1 {
				if plan.Shards != nil {
					t.Errorf("%v workers=%d: plan reports shards %v, want none", repl, workers, plan.Shards)
				}
				continue
			}
			if len(plan.Shards) < 2 || len(plan.Shards) > workers {
				t.Errorf("%v workers=%d: plan reports %d shards", repl, workers, len(plan.Shards))
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
}

// TestSingleGroupFanoutMatchesSequential pins the in-memory range split: a
// sweep whose space collapses to ONE workload group (sequential layout,
// single tiling) splits its trace — several epochs long — across every
// worker, in time ranges for LRU and across pass units for FIFO.
// Results must stay bit-identical.
func TestSingleGroupFanoutMatchesSequential(t *testing.T) {
	n := kernels.MatMul()
	for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO} {
		opts := pipelineTestOptions()
		opts.Replacement = repl
		opts.Tilings = []int{1}
		opts.OptimizeLayout = false // one workload group for the whole space
		if g := groupWorkloads(opts, opts.Space()); len(g) != 1 {
			t.Fatalf("test space has %d workload groups, want 1", len(g))
		}
		tn, err := loopir.TileAll(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tn.Generate(loopir.SequentialLayout(tn, 0))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() < 3*rangeEpochRefs {
			t.Fatalf("%s trace has %d references, want ≥ 3 epochs", n.Name, tr.Len())
		}
		opts.Workers = 1
		want, err := ExploreContext(context.Background(), n, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 33} {
			opts.Workers = workers
			got, err := ExploreContext(context.Background(), n, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v workers=%d: single-group split diverges from sequential", repl, workers)
			}
		}
	}
}
