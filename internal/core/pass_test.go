package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// passTestOptions is a small mixed space: stack levels with several
// associativities per geometry and one-config levels; the FIFO and
// random policies below send the same space to the fallback caches.
func passTestOptions() Options {
	opts := DefaultOptions()
	opts.CacheSizes = []int{32, 64, 128, 256}
	opts.LineSizes = []int{8, 16}
	opts.Assocs = []int{1, 2, 4}
	opts.Energy.CountWriteTraffic = true
	return opts
}

// writeStream encodes tr as a bare mxt v2 chunk stream, without the
// index footer, so every reader decodes it chunk by chunk in order.
func writeStream(w io.Writer, tr *trace.Trace) (int64, error) {
	return extrace.WriteBinaryV2Options(w, tr.Reader(), extrace.V2WriterOptions{NoIndex: true})
}

// TestPipelinedTraceSweepMatchesSequential pins the parallel stream
// pass: at worker counts below, at and far above the pass-unit count it
// returns bit-identical metrics and ingest statistics to the exact
// sequential path, across policies that exercise stack levels, pure
// fallback caches and per-cache RNG.
func TestPipelinedTraceSweepMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr := randomMixedTrace(rng, 40000, 8192) // several chunks of cachesim.CancelCheckInterval
	var buf bytes.Buffer
	if _, err := writeStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
		opts := passTestOptions()
		opts.Replacement = repl
		opts.Workers = 1
		wantMS, wantST, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			t.Run(fmt.Sprintf("repl=%v/workers=%d", repl, workers), func(t *testing.T) {
				opts := passTestOptions()
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
// filter mode — exact and sampled — must match the sequential engine
// record for record at workers 2–4. Run under -race by make check.
func TestPipelinedTraceSweepProperty(t *testing.T) {
	policies := []struct {
		repl         cachesim.Replacement
		writeThrough bool
	}{{cachesim.LRU, false}, {cachesim.LRU, true}, {cachesim.FIFO, false}, {cachesim.Random, true}}
	modes := []struct {
		name    string
		rate    float64
		minRefs int // body length that keeps ≥ 3 epochs after filtering
	}{
		{"exact", 0, 3 * rangeEpochRefs},
		{"sampled", 0.5, 7 * rangeEpochRefs},
	}
	for seed := int64(1); seed <= int64(len(policies)); seed++ {
		for _, mode := range modes {
			rng := rand.New(rand.NewSource(seed))
			n := mode.minRefs + rng.Intn(rangeEpochRefs)
			// Small spans keep lines resident across epoch boundaries.
			tr := randomMixedTrace(rng, n, 1<<(9+rng.Intn(3)))
			var buf bytes.Buffer
			if _, err := writeStream(&buf, tr); err != nil {
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
			opts.SampleRate, opts.SampleSeed = mode.rate, uint64(seed)

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
				// A non-seekable stream.
				body := iotest.HalfReader(bytes.NewReader(encoded))
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
	opts := passTestOptions()
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
	if _, err := writeStream(&valid, randomMixedTrace(rand.New(rand.NewSource(5)), 300, 2048)); err != nil {
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
		opts := passTestOptions()
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
		opts := passTestOptions()
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

// TestPassCancelEverySink cancels a pass on each of its sinks — the
// sweep itself at one worker, the range executor (LRU) and the
// pass-unit fan-out (FIFO) at four — over an in-memory kernel trace and
// over an endless stream. Each must stop within a bounded number of
// chunks with an error wrapping ErrCanceled and context.Canceled, and
// leave no goroutine running.
func TestPassCancelEverySink(t *testing.T) {
	const chunks = 3 // the context reports cancellation on its next check
	kernelRefs := exportKernelTrace(t, kernels.MatMul()).Refs()
	if len(kernelRefs) <= (chunks+1)*rangeEpochRefs {
		t.Fatalf("kernel trace has %d references, want more than %d epochs", len(kernelRefs), chunks+1)
	}
	for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO} {
		opts := passTestOptions()
		opts.Replacement = repl
		opts.Tilings = []int{1}
		cfgs := cacheConfigs(opts, opts.Space())
		for _, workers := range []int{1, 4} {
			wantSink := "core.sweepSink"
			if workers > 1 && repl == cachesim.LRU {
				wantSink = "*core.rangeExec"
			} else if workers > 1 {
				wantSink = "*core.sweepFanout"
			}
			for _, input := range []string{"kernel", "stream"} {
				t.Run(fmt.Sprintf("%v/workers=%d/%s", repl, workers, input), func(t *testing.T) {
					before := runtime.NumGoroutine()
					sweep, err := cachesim.NewSweep(cfgs)
					if err != nil {
						t.Fatal(err)
					}
					defer sweep.Release()
					p := pass{sweep: sweep, ctr: bus.NewSwitchCounter(bus.Gray), workers: workers, mem: kernelRefs}
					if input == "stream" {
						rd := extrace.NewReader(&dinGenerator{records: -1}, extrace.Options{})
						defer rd.Close()
						p.mem, p.rd = nil, rd
					}
					sink, step := p.sink()
					sink.stop()
					if got := fmt.Sprintf("%T", sink); got != wantSink {
						t.Fatalf("pass runs on %s, want %s", got, wantSink)
					}

					ctx := &countingCtx{Context: context.Background(), limit: chunks}
					err = p.run(ctx)
					if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
					}
					if got := p.ctr.Drives(); got == 0 || got > chunks*uint64(step) {
						t.Errorf("pass drove %d references before stopping, want 1..%d (%d chunks)", got, chunks*step, chunks)
					}
					for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					if n := runtime.NumGoroutine() - before; n > 0 {
						t.Errorf("%d goroutines still running after the canceled pass", n)
					}
				})
			}
		}
	}
}
