// Benchmarks that regenerate every table and figure of the paper's
// evaluation — one testing.B target per exhibit, as indexed in DESIGN.md.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding exhibit from
// internal/figures (the same code cmd/paperfigs prints) and fails if any
// of the paper's qualitative claims diverge. The printed tables for the
// record live in EXPERIMENTS.md.
package memexplore_test

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"io"
	"os"
	"path/filepath"
	"reflect"

	"memexplore"
	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/figures"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/search"
)

// runExhibit executes one figure/table generator b.N times, failing the
// benchmark if the regenerated data contradicts the paper's claims.
func runExhibit(b *testing.B, id string) {
	b.Helper()
	entry, err := figures.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := entry.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		for _, f := range res.Findings {
			if strings.Contains(f, "[DIVERGED]") {
				b.Errorf("%s: %s", id, f)
			}
		}
	}
}

// BenchmarkFig01EnergyVsEm regenerates Figure 1: Compress energy versus
// cache and line size for Em = 43.56 nJ and Em = 2.31 nJ (the trend
// reversal that motivates energy as a first-class metric).
func BenchmarkFig01EnergyVsEm(b *testing.B) { runExhibit(b, "fig01") }

// BenchmarkFig02MetricsVsCacheAndLine regenerates Figure 2: miss rate,
// cycles and energy for the five kernels over C16L4…C128L32.
func BenchmarkFig02MetricsVsCacheAndLine(b *testing.B) { runExhibit(b, "fig02") }

// BenchmarkFig03CompressCycles regenerates Figure 3: the Compress cycle
// surface over the (C, L) grid.
func BenchmarkFig03CompressCycles(b *testing.B) { runExhibit(b, "fig03") }

// BenchmarkFig04CompressEnergy regenerates Figure 4: the Compress energy
// surface (Em = 4.95 nJ) with its C16L4 minimum.
func BenchmarkFig04CompressEnergy(b *testing.B) { runExhibit(b, "fig04") }

// BenchmarkFig05OffchipAssignment regenerates Figure 5: the miss-rate
// reduction from the §4.1 off-chip memory assignment.
func BenchmarkFig05OffchipAssignment(b *testing.B) { runExhibit(b, "fig05") }

// BenchmarkFig06Tiling regenerates Figure 6: miss rate, cycles and energy
// versus tiling size at C64L8.
func BenchmarkFig06Tiling(b *testing.B) { runExhibit(b, "fig06") }

// BenchmarkFig07EnergyTilingAssoc regenerates Figure 7: Compress and
// Dequant energy versus tiling and versus set associativity.
func BenchmarkFig07EnergyTilingAssoc(b *testing.B) { runExhibit(b, "fig07") }

// BenchmarkFig08Associativity regenerates Figure 8: miss rate, cycles and
// energy versus set associativity at C64L8.
func BenchmarkFig08Associativity(b *testing.B) { runExhibit(b, "fig08") }

// BenchmarkFig09AssocTilingCombined regenerates Figure 9: the combined
// (SA, TS) table with optimized and unoptimized values.
func BenchmarkFig09AssocTilingCombined(b *testing.B) { runExhibit(b, "fig09") }

// BenchmarkFig10MPEGPerKernel regenerates Figure 10: the minimum-energy
// configuration for each MPEG decoder kernel.
func BenchmarkFig10MPEGPerKernel(b *testing.B) { runExhibit(b, "fig10") }

// BenchmarkSec3MinCacheSize regenerates the §3 analytical minimum cache
// sizes and the bounded-selection examples.
func BenchmarkSec3MinCacheSize(b *testing.B) { runExhibit(b, "sec3") }

// BenchmarkSec3BoundedSelection is an alias target for the §3 selection
// queries (the same exhibit computes both tables).
func BenchmarkSec3BoundedSelection(b *testing.B) { runExhibit(b, "sec3") }

// BenchmarkSec5MPEGAggregate regenerates the §5 whole-decoder result:
// minimum-energy versus minimum-cycles configuration.
func BenchmarkSec5MPEGAggregate(b *testing.B) { runExhibit(b, "sec5") }

// BenchmarkAblationGrayVsBinary measures the address-bus switching of the
// Compress trace under Gray versus binary encoding — the paper's Gray-code
// assumption quantified.
func BenchmarkAblationGrayVsBinary(b *testing.B) {
	n := kernels.Compress()
	tr, err := n.Generate(loopir.SequentialLayout(n, 0))
	if err != nil {
		b.Fatal(err)
	}
	var grayBS, binBS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grayBS = bus.MeasureTrace(tr, bus.Gray).AddBS()
		binBS = bus.MeasureTrace(tr, bus.Binary).AddBS()
	}
	b.StopTimer()
	if grayBS >= binBS {
		b.Errorf("gray switching %v should be below binary %v", grayBS, binBS)
	}
	b.ReportMetric(grayBS, "gray-addbs")
	b.ReportMetric(binBS, "binary-addbs")
}

// BenchmarkAblationReplacement compares LRU, FIFO and random replacement
// on the Compress trace at a contended 4-way geometry.
func BenchmarkAblationReplacement(b *testing.B) {
	n := kernels.Compress()
	tr, err := n.Generate(loopir.SequentialLayout(n, 0))
	if err != nil {
		b.Fatal(err)
	}
	rates := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
			cfg := cachesim.DefaultConfig(64, 8, 4)
			cfg.Replacement = pol
			st, err := cachesim.RunTrace(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			rates[pol.String()] = st.MissRate()
		}
	}
	b.StopTimer()
	b.ReportMetric(rates["LRU"], "lru-missrate")
	b.ReportMetric(rates["FIFO"], "fifo-missrate")
	b.ReportMetric(rates["random"], "random-missrate")
}

// BenchmarkExploreSweep measures the full DefaultOptions Compress sweep
// (441 points, sequential layout) on the engine ladder: the per-point
// reference path, the workload-grouped engine on fallback caches (FIFO
// replacement, one simulator per configuration), the inclusion engine
// (LRU, the default — one stack pass per (line, sets) group), and the
// inclusion engine with worker parallelism; then the single-workload-
// group shape, where spare workers split the one group: in time ranges
// for the inclusion engine, across pass units for the fallback caches;
// then optimized layouts, which run the §4.1 guard per (tiling, L, T/L)
// workload: Compress over the default space, and matmul at tiling 1.
// Legs named without "parallel" or "ranges" run at Workers 1. The
// numbers for the record live in BENCH_sweep.json; refresh them with
// `make bench-sweep`.
func BenchmarkExploreSweep(b *testing.B) {
	n := kernels.Compress()
	opts := core.DefaultOptions()
	opts.OptimizeLayout = false
	ctx := context.Background()

	type explore func(context.Context, *loopir.Nest, core.Options) ([]core.Metrics, error)
	runOn := func(b *testing.B, n *loopir.Nest, explore explore, opts core.Options, workers int) {
		b.Helper()
		b.ReportAllocs()
		opts.Workers = workers
		for i := 0; i < b.N; i++ {
			ms, err := explore(ctx, n, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(len(ms)), "points")
			}
		}
	}
	run := func(b *testing.B, explore explore, opts core.Options, workers int) {
		b.Helper()
		runOn(b, n, explore, opts, workers)
	}
	batched := opts
	batched.Replacement = cachesim.FIFO
	b.Run("per-point", func(b *testing.B) { run(b, core.ExplorePerPointContext, opts, 1) })
	b.Run("batched", func(b *testing.B) { run(b, core.ExploreContext, batched, 1) })
	b.Run("inclusion", func(b *testing.B) { run(b, core.ExploreContext, opts, 1) })
	b.Run("inclusion-parallel", func(b *testing.B) { run(b, core.ExploreContext, opts, 4) })
	// One workload group (single tiling): group-level parallelism has
	// nothing to chew on, so the workers split the group's trace into
	// time ranges instead — the range executor.
	single := opts
	single.Tilings = []int{1}
	b.Run("single-group", func(b *testing.B) { run(b, core.ExploreContext, single, 1) })
	b.Run("single-group-ranges", func(b *testing.B) { run(b, core.ExploreContext, single, 4) })
	// The same single group on fallback caches, alone and at 4 workers:
	// the pass-unit fan-out, the only parallel path of fallback sweeps.
	singleBatched := single
	singleBatched.Replacement = cachesim.FIFO
	b.Run("single-group-batched", func(b *testing.B) { run(b, core.ExploreContext, singleBatched, 1) })
	b.Run("batched-parallel", func(b *testing.B) { run(b, core.ExploreContext, singleBatched, 4) })
	// The §4.1 layout guard: optimized layouts over Compress's default
	// space, and matmul at one tiling, where the padded plans mostly win.
	optimized := core.DefaultOptions()
	b.Run("optimized", func(b *testing.B) { run(b, core.ExploreContext, optimized, 1) })
	// The same optimized space classified: one classifying fallback cache
	// per point in each workload group's pass, alone and at 4 workers.
	classified := optimized
	classified.Classify = true
	b.Run("classified", func(b *testing.B) { run(b, core.ExploreContext, classified, 1) })
	b.Run("classified-parallel", func(b *testing.B) { run(b, core.ExploreContext, classified, 4) })
	optimized.Tilings = []int{1}
	b.Run("optimized-matmul", func(b *testing.B) { runOn(b, kernels.MatMul(), core.ExploreContext, optimized, 1) })
}

// BenchmarkExploreDinTrace measures the external-trace pipeline end to
// end: a din text stream through ingestion, the Gray-code bus measurement
// and the full batched (T, L, S) sweep in one pass. SetBytes makes `go
// test -bench` print MB/s of din text; records/s is the trace-record
// throughput. The numbers for the record live in BENCH_trace.json;
// refresh them with `make bench-trace`.
func BenchmarkExploreDinTrace(b *testing.B) {
	n := kernels.Compress()
	tiled, err := loopir.TileAll(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		b.Fatal(err)
	}
	var one bytes.Buffer
	records, err := extrace.WriteDin(&one, tr.Reader())
	if err != nil {
		b.Fatal(err)
	}
	// Repeat the kernel trace to a ~1M-record stream so ingest, not
	// setup, dominates what is measured.
	const repeats = 220
	payload := bytes.Repeat(one.Bytes(), repeats)
	records *= repeats

	run := func(b *testing.B, workers int) {
		b.Helper()
		opts := core.DefaultOptions()
		opts.Workers = workers
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		var st extrace.IngestStats
		for i := 0; i < b.N; i++ {
			var ms []core.Metrics
			ms, st, err = core.ExploreTrace(bytes.NewReader(payload), opts, extrace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(len(ms)), "points")
			}
		}
		b.StopTimer()
		if st.Records != records {
			b.Fatalf("ingested %d records, want %d", st.Records, records)
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
	// workers=1 is the exact sequential engine; workers=2 adds the decode
	// pipeline plus two range workers; workers=numcpu is the default an
	// ExploreTrace caller gets (Options.Workers = 0).
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=2", func(b *testing.B) { run(b, 2) })
	b.Run("workers=numcpu", func(b *testing.B) { run(b, runtime.NumCPU()) })
}

// BenchmarkExploreTraceSampled measures the billion-record-trace levers
// against the exact din baseline on one shared workload: a ~1.06M-record
// stream of 220 Compress-kernel segments at distinct 1 MiB offsets (so
// block-level sampling has a real population to draw from).
//
//   - din/exact        — text parse + exact sweep (the baseline)
//   - v2/exact         — columnar mxt v2 decode + exact sweep (bit-identical metrics)
//   - v2/sample=0.01   — SHARDS block sampling at R=0.01 (the ≥10x target)
func BenchmarkExploreTraceSampled(b *testing.B) {
	n := kernels.Compress()
	tiled, err := loopir.TileAll(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		b.Fatal(err)
	}
	const segments = 220
	var din bytes.Buffer
	for k := 0; k < segments; k++ {
		for _, r := range tr.Refs() {
			din.WriteByte(byte('0' + r.Kind.DinLabel()))
			din.WriteByte(' ')
			b2 := strconv.AppendUint(nil, r.Addr+uint64(k)<<20, 16)
			din.Write(b2)
			if r.EffectiveSize() != 1 {
				din.WriteByte(' ')
				din.Write(strconv.AppendUint(nil, uint64(r.EffectiveSize()), 10))
			}
			din.WriteByte('\n')
		}
	}
	records := int64(tr.Len() * segments)
	var v2 bytes.Buffer
	if _, _, err := extrace.TranscodeV2(&v2, bytes.NewReader(din.Bytes()), extrace.Options{}); err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, payload []byte, mutate func(*core.Options)) {
		b.Helper()
		opts := core.DefaultOptions()
		if mutate != nil {
			mutate(&opts)
		}
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		var sampled int64
		for i := 0; i < b.N; i++ {
			ms, st, err := core.ExploreTrace(bytes.NewReader(payload), opts, extrace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if st.Records != records {
				b.Fatalf("ingested %d records, want %d", st.Records, records)
			}
			sampled = ms[0].SampledRecords
		}
		b.StopTimer()
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		if sampled > 0 {
			b.ReportMetric(float64(sampled), "simulated")
		}
	}
	b.Run("din/exact", func(b *testing.B) { run(b, din.Bytes(), nil) })
	b.Run("v2/exact", func(b *testing.B) { run(b, v2.Bytes(), nil) })
	b.Run("v2/sample=0.01", func(b *testing.B) {
		run(b, v2.Bytes(), func(o *core.Options) { o.SampleRate, o.SampleSeed = 0.01, 1 })
	})
}

// BenchmarkSimulatorThroughput measures raw simulator speed on a long
// synthetic trace — the substrate's own performance, useful when sizing
// larger sweeps.
func BenchmarkSimulatorThroughput(b *testing.B) {
	n := kernels.MatMul()
	tr, err := n.Generate(loopir.SequentialLayout(n, 0))
	if err != nil {
		b.Fatal(err)
	}
	cfg := cachesim.DefaultConfig(1024, 16, 4)
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cachesim.RunTrace(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtEnergyBreakdown regenerates the energy-component
// decomposition exhibit (why the energy optimum is interior).
func BenchmarkExtEnergyBreakdown(b *testing.B) { runExhibit(b, "ext-breakdown") }

// BenchmarkExtICache regenerates the §6 instruction-cache extension and
// the joint I+D budget selection.
func BenchmarkExtICache(b *testing.B) { runExhibit(b, "ext-icache") }

// BenchmarkExtStackDist regenerates the reuse-distance analysis and its
// exact cross-check against the simulator.
func BenchmarkExtStackDist(b *testing.B) { runExhibit(b, "ext-stackdist") }

// BenchmarkExtWarmPipeline regenerates the warm-pipeline-vs-cold-
// composition ablation of the §5 independence assumption.
func BenchmarkExtWarmPipeline(b *testing.B) { runExhibit(b, "ext-warm") }

// BenchmarkExtVictimVsLayout regenerates the hardware-vs-software
// conflict-elimination comparison (victim buffer vs §4.1 assignment).
func BenchmarkExtVictimVsLayout(b *testing.B) { runExhibit(b, "ext-victim") }

// BenchmarkExtScratchpad regenerates the cache-vs-scratchpad equal-
// capacity comparison.
func BenchmarkExtScratchpad(b *testing.B) { runExhibit(b, "ext-spm") }

// BenchmarkExtTwoLevel regenerates the two-level-vs-single-level
// comparison at equal on-chip capacity.
func BenchmarkExtTwoLevel(b *testing.B) { runExhibit(b, "ext-l2") }

// BenchmarkExtEmCrossover regenerates the bisection for the Em value at
// which the Compress energy optimum changes cache size.
func BenchmarkExtEmCrossover(b *testing.B) { runExhibit(b, "ext-crossover") }

// BenchmarkExtAutotune regenerates the transformation × cache codesign
// search on the transpose kernel.
func BenchmarkExtAutotune(b *testing.B) { runExhibit(b, "ext-autotune") }

// BenchmarkSearch compares the guided NSGA-II search (internal/search)
// against the exhaustive sweep on an enlarged configuration space —
// the search's reason to exist. The exhaustive baseline reports the
// space size; the guided runs report their evaluation spend and the
// fraction of the exhaustive Pareto hypervolume their archive recovers
// (hv_frac 1.0 = the evolved archive matches the true frontier). The
// numbers for the record live in BENCH_search.json; refresh them with
// `make bench-search`.
func BenchmarkSearch(b *testing.B) {
	n := kernels.Compress()
	opts := core.DefaultOptions()
	opts.CacheSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
		8192, 16384, 32768, 65536, 131072, 262144}
	opts.LineSizes = []int{4, 8, 16, 32, 64, 128, 256}
	opts.Assocs = []int{1, 2, 4, 8}
	opts.Tilings = make([]int, 64)
	for i := range opts.Tilings {
		opts.Tilings[i] = i + 1
	}
	opts = opts.Normalize()
	ctx := context.Background()
	opts.Workers = runtime.NumCPU()

	full, err := core.ExploreContext(ctx, n, opts)
	if err != nil {
		b.Fatal(err)
	}
	var refC, refE float64
	for _, m := range full {
		refC = max(refC, m.Cycles)
		refE = max(refE, m.EnergyNJ)
	}
	refC, refE = refC*1.01+1, refE*1.01+1
	hvFull := search.Hypervolume(core.ParetoFrontier(full), refC, refE)

	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ms, err := core.ExploreContext(ctx, n, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(len(ms)), "points")
			}
		}
	})
	for _, evals := range []int{500, 1500} {
		b.Run("guided-"+strconv.Itoa(evals), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Kernel(ctx, n, opts, search.Options{Seed: 7},
					search.Budget{MaxEvaluations: evals})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Evaluations), "evals")
					b.ReportMetric(float64(res.Generations), "gens")
					b.ReportMetric(search.Hypervolume(res.Archive, refC, refE)/hvFull, "hv_frac")
				}
			}
		})
	}
}

// BenchmarkIngest isolates the zero-copy ingestion levers from the
// simulator on a ~2.9M-record embedded-style workload transcoded to mxt
// v2 on disk: 220 Compress compute segments at distinct 1 MiB offsets
// (as in BenchmarkExploreTraceSampled), each followed by a
// device-polling idle phase — a tight loop rescanning one 256-byte
// buffer, the few-granule busy-wait pattern low-power firmware spends
// much of its time in. The polling phases are what the MXTI01 granule
// summaries can prove dead under sampling; the compute segments mostly
// cannot be skipped, so the indexed sweep still decodes real work:
//
//   - decode/file     — chunk decode of the indexed artifact as an
//     *os.File: seekable and profile-bearing, so the reader counts
//     records and kinds and takes the rest of its stats from the footer
//   - decode/stream   — the same file behind a non-seekable wrapper,
//     the transport of gzip, stdin and HTTP bodies: the ingest-statistics
//     accumulator runs on every record
//   - transcode       — TranscodeV2 of the din text to io.Discard: din
//     parse, one accumulator, chunk encode and the index footer
//   - sweep/full@sample=0.01    — full sweep, R=0.01 sampling, on an
//     index-less artifact: every chunk decoded, then filtered
//   - sweep/indexed@sample=0.01 — the same sweep on the indexed
//     artifact: chunks the MXTI01 granule summary proves dead are
//     skipped without decoding (bit-identical Metrics)
//
// records/s counts accounted records — for the indexed leg that is the
// effective rate including records skipped via the index.
func BenchmarkIngest(b *testing.B) {
	n := kernels.Compress()
	tiled, err := loopir.TileAll(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		b.Fatal(err)
	}
	const segments = 220
	const pollRecords = 24576 // idle-phase length after each compute segment (~5:1 idle:compute duty cycle)
	var din bytes.Buffer
	for k := 0; k < segments; k++ {
		for _, r := range tr.Refs() {
			din.WriteByte(byte('0' + r.Kind.DinLabel()))
			din.WriteByte(' ')
			b2 := strconv.AppendUint(nil, r.Addr+uint64(k)<<20, 16)
			din.Write(b2)
			if r.EffectiveSize() != 1 {
				din.WriteByte(' ')
				din.Write(strconv.AppendUint(nil, uint64(r.EffectiveSize()), 10))
			}
			din.WriteByte('\n')
		}
		// Polling phase: reread a 256-byte status buffer word by word,
		// high in this segment's MiB so it never aliases compute data.
		pollBase := uint64(k)<<20 + 768<<10
		for j := 0; j < pollRecords; j++ {
			din.WriteString("0 ")
			din.Write(strconv.AppendUint(nil, pollBase+uint64(j%32)*8, 16))
			din.WriteByte('\n')
		}
	}
	records := int64((tr.Len() + pollRecords) * segments)

	dir := b.TempDir()
	indexedPath := filepath.Join(dir, "ingest.mxt")
	barePath := filepath.Join(dir, "ingest-noindex.mxt")
	writeV2 := func(path string, wo extrace.V2WriterOptions) {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := extrace.TranscodeV2Options(f, bytes.NewReader(din.Bytes()), extrace.Options{}, wo); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	writeV2(indexedPath, extrace.V2WriterOptions{})
	writeV2(barePath, extrace.V2WriterOptions{NoIndex: true})

	// drain measures pure decode throughput: open, stream every record,
	// no simulation. stream hides the file's Seek and ReadAt.
	drain := func(b *testing.B, path string, stream bool) {
		b.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(fi.Size())
		b.ReportAllocs()
		b.ResetTimer()
		var st extrace.IngestStats
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			var src io.Reader = f
			if stream {
				src = struct{ io.Reader }{f}
			}
			rd := extrace.NewReader(src, extrace.Options{})
			buf := make([]memexplore.TraceRef, 4096)
			for {
				_, err := rd.Read(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			st = rd.Stats()
			rd.Close()
			f.Close()
		}
		b.StopTimer()
		if st.Records != records {
			b.Fatalf("drained %d records, want %d", st.Records, records)
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
	b.Run("decode/file", func(b *testing.B) { drain(b, indexedPath, false) })
	b.Run("decode/stream", func(b *testing.B) { drain(b, indexedPath, true) })
	b.Run("transcode", func(b *testing.B) {
		b.SetBytes(int64(din.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, _, err := extrace.TranscodeV2(io.Discard, bytes.NewReader(din.Bytes()), extrace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if n != records {
				b.Fatalf("transcoded %d records, want %d", n, records)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})

	// sweep measures the full ExploreTrace at R=0.01 — the indexed
	// artifact skips dead chunks, the index-less control decodes all of
	// them — asserting bit-identical Metrics between the two.
	sweep := func(b *testing.B, path string, wantSkips bool) []core.Metrics {
		b.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.SampleRate, opts.SampleSeed = 0.01, 1
		b.SetBytes(fi.Size())
		b.ReportAllocs()
		b.ResetTimer()
		var ms []core.Metrics
		var st extrace.IngestStats
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			ms, st, err = core.ExploreTrace(f, opts, extrace.Options{})
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st.Records != records {
			b.Fatalf("ingested %d records, want %d", st.Records, records)
		}
		if wantSkips && st.ChunksSkipped == 0 {
			b.Fatal("indexed sweep skipped no chunks")
		}
		if !wantSkips && st.ChunksSkipped != 0 {
			b.Fatalf("control sweep skipped %d chunks", st.ChunksSkipped)
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(float64(st.ChunksSkipped), "chunks_skipped")
		return ms
	}
	var full, indexed []core.Metrics
	b.Run("sweep/full@sample=0.01", func(b *testing.B) { full = sweep(b, barePath, false) })
	b.Run("sweep/indexed@sample=0.01", func(b *testing.B) { indexed = sweep(b, indexedPath, true) })
	if full != nil && indexed != nil && !reflect.DeepEqual(full, indexed) {
		b.Fatal("indexed-skip sweep diverged from the full decode")
	}
}
