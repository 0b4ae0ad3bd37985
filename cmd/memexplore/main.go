// Command memexplore runs the paper's exploration algorithm for one
// benchmark kernel and reports the configuration space with the bounded
// and unbounded optima.
//
// Usage:
//
//	memexplore -kernel compress
//	memexplore -kernel sor -em 43.56 -cycle-bound 30000
//	memexplore -kernel matmul -unoptimized -pareto
//	memexplore -trace app.din.gz
//	memexplore -trace app.din.gz -convert app.mxt.gz
//	memexplore -trace app.mxt.gz -sample-rate 0.01 -sample-seed 7
//	memexplore -search -budget-evals 2000 -seed 7 -sizes 16,32,...,1048576
//	memexplore -list
//	memexplore -server http://localhost:8080 -kernel compress -wait
//	memexplore -server http://localhost:8080 -job 4f1c... -wait
//
// With -trace the workload is a recorded application trace (din text or
// mxt binary, optionally gzipped; "-" reads stdin) streamed through the
// sweep in one constant-memory pass instead of a generated kernel.
//
// With -search the configuration space is explored by a budgeted,
// seeded NSGA-II evolution (see docs/SEARCH.md) instead of an
// exhaustive sweep — for spaces too large to enumerate. The report is
// the evolved Pareto archive rather than the full sweep.
//
// With -server the sweep is submitted to a running memexplored as an
// async job instead of running locally; -wait polls it to completion
// and renders the result, and -job fetches or awaits an existing job id.
package main

import (
	"compress/gzip"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"memexplore"
	"memexplore/internal/report"
)

func main() {
	var (
		kernelName  = flag.String("kernel", "compress", "benchmark kernel to explore (see -list)")
		kernelFile  = flag.String("file", "", "explore a kernel parsed from this file (overrides -kernel; see the README for the nest syntax)")
		list        = flag.Bool("list", false, "list available kernels and exit")
		sizes       = flag.String("sizes", "16,32,64,128,256,512,1024", "candidate cache sizes T in bytes")
		lines       = flag.String("lines", "4,8,16,32,64", "candidate line sizes L in bytes")
		assocs      = flag.String("assocs", "1,2,4,8", "candidate set associativities S")
		tilings     = flag.String("tilings", "1,2,4,8,16", "candidate tiling sizes B")
		em          = flag.Float64("em", 4.95, "main-memory energy per access in nJ (paper parts: 4.95, 2.31, 43.56)")
		unoptimized = flag.Bool("unoptimized", false, "disable the §4.1 off-chip memory assignment")
		cycleBound  = flag.Float64("cycle-bound", 0, "report the min-energy configuration under this cycle bound")
		energyBound = flag.Float64("energy-bound", 0, "report the min-time configuration under this energy bound (nJ)")
		pareto      = flag.Bool("pareto", false, "print the cycles/energy Pareto frontier")
		top         = flag.Int("top", 10, "print the N lowest-energy configurations (0 = all)")
		icacheMode  = flag.Bool("icache", false, "explore an instruction cache for the kernel instead of a data cache (§6 extension)")
		program     = flag.String("program", "", "aggregate a whole program: 'mpeg' or a file of '<kernel|nestfile> <trip>' lines (§5)")
		repl        = flag.String("repl", "lru", "replacement policy: lru, fifo, random")
		victim      = flag.Int("victim", 0, "attach a fully associative victim buffer of N lines to every cache")
		writeThru   = flag.Bool("write-through", false, "write-through instead of write-back caches")
		csvPath     = flag.String("csv", "", "write the full sweep as CSV to this file ('-' for stdout)")
		jsonPath    = flag.String("json", "", "write the full sweep as JSON to this file ('-' for stdout)")
		tracePath   = flag.String("trace", "", "sweep a recorded trace file (din or mxt binary, .gz ok; '-' for stdin) instead of a kernel")
		skipBad     = flag.Bool("skip-malformed", false, "with -trace, skip malformed records instead of failing")
		maxRecords  = flag.Int64("max-records", 0, "with -trace, fail after this many records (0 = unlimited)")
		sampleRate  = flag.Float64("sample-rate", 0, "with -trace, simulate only this fraction of cache blocks (SHARDS spatial sampling; 0 or 1 = exact); with -convert, bake the sample into the artifact")
		sampleSeed  = flag.Uint64("sample-seed", 0, "with -trace, hash seed selecting which blocks -sample-rate keeps")
		convertPath = flag.String("convert", "", "with -trace, transcode the trace to columnar mxt v2 at this path instead of sweeping ('-' for stdout, .gz compresses)")
		workers     = flag.Int("workers", 0, "goroutines per sweep, for kernel, -program, -search and -trace runs: LRU sweeps split the trace into time ranges, other policies fan each chunk across pass-unit shards (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		searchMode  = flag.Bool("search", false, "run a budgeted NSGA-II search over the configuration space instead of an exhaustive sweep")
		budgetEvals = flag.Int("budget-evals", 0, "with -search, stop once this many distinct configurations have been evaluated (default 2000 when no other bound is set)")
		budgetGens  = flag.Int("budget-gens", 0, "with -search, stop after this many generations (0 = unbounded)")
		budgetMS    = flag.Int64("budget-ms", 0, "with -search, stop after this wall-clock budget in milliseconds (0 = unbounded; breaks bit-reproducibility)")
		searchSeed  = flag.Uint64("seed", 0, "with -search, random seed — the same seed and budget reproduce the archive exactly")
		popSize     = flag.Int("pop", 0, "with -search, NSGA-II population size (0 = default)")
		serverURL   = flag.String("server", "", "submit the sweep to this memexplored base URL as an async job instead of running locally")
		shards      = flag.Int("shards", 0, "with -server and -trace, distribute the sweep across this many replica shards (-1 = one per replica, 0/1 = local to the server)")
		jobID       = flag.String("job", "", "with -server, fetch (or with -wait, await) this existing job id instead of submitting")
		waitJob     = flag.Bool("wait", false, "with -server, poll the job until it finishes and render its result")
	)
	flag.Parse()

	if *list {
		for _, n := range memexplore.KernelNames() {
			fmt.Println(n)
		}
		return
	}

	opts := buildOptions(*sizes, *lines, *assocs, *tilings, *em, *unoptimized)
	switch *repl {
	case "lru": // default
	case "fifo":
		opts.Replacement = memexplore.FIFO
	case "random":
		opts.Replacement = memexplore.RandomReplacement
	default:
		fatal(fmt.Errorf("unknown replacement policy %q", *repl))
	}
	opts.VictimLines = *victim
	opts.WriteThrough = *writeThru
	opts.Workers = *workers
	opts.SampleRate = *sampleRate
	opts.SampleSeed = *sampleSeed
	ro := reportOpts{top: *top, cycleBound: *cycleBound, energyBound: *energyBound, pareto: *pareto,
		csvPath: *csvPath, jsonPath: *jsonPath}

	if *serverURL != "" || *jobID != "" {
		if *serverURL == "" {
			fatal(fmt.Errorf("-job requires -server"))
		}
		if *searchMode {
			fatal(fmt.Errorf("-search runs locally; POST the request to the server's /v1/search endpoint instead"))
		}
		if *shards != 0 && *tracePath == "" {
			fatal(fmt.Errorf("-shards distributes a trace sweep; it requires -trace"))
		}
		ing := memexplore.TraceIngestOptions{MaxRecords: *maxRecords, SkipMalformed: *skipBad}
		if err := runClient(*serverURL, *jobID, *waitJob, *tracePath,
			*kernelName, *kernelFile, opts, ing, *shards, *cycleBound, *energyBound, ro); err != nil {
			fatal(err)
		}
		return
	}

	if *shards != 0 {
		fatal(fmt.Errorf("-shards requires -server: distribution runs across memexplored replicas"))
	}

	if *program != "" {
		if err := runProgram(*program, opts); err != nil {
			fatal(err)
		}
		return
	}

	if *convertPath != "" {
		if *tracePath == "" {
			fatal(fmt.Errorf("-convert requires -trace"))
		}
		ing := memexplore.TraceIngestOptions{MaxRecords: *maxRecords, SkipMalformed: *skipBad}
		wo := memexplore.TraceWriterOptions{SampleRate: *sampleRate, SampleSeed: *sampleSeed}
		if err := runConvert(*tracePath, *convertPath, ing, wo); err != nil {
			fatal(err)
		}
		return
	}

	if *searchMode {
		if *icacheMode || *program != "" {
			fatal(fmt.Errorf("-search explores a data cache for one kernel or trace; it cannot combine with -icache or -program"))
		}
		sopts := memexplore.SearchOptions{Seed: *searchSeed, PopSize: *popSize}
		budget := memexplore.SearchBudget{
			MaxEvaluations: *budgetEvals,
			MaxGenerations: *budgetGens,
			WallClock:      time.Duration(*budgetMS) * time.Millisecond,
		}
		if budget.MaxEvaluations == 0 && budget.MaxGenerations == 0 && budget.WallClock == 0 {
			budget.MaxEvaluations = 2000
		}
		ing := memexplore.TraceIngestOptions{MaxRecords: *maxRecords, SkipMalformed: *skipBad}
		if err := runSearch(*kernelName, *kernelFile, *tracePath, opts, ing, sopts, budget, ro); err != nil {
			fatal(err)
		}
		return
	}

	if *tracePath != "" {
		ing := memexplore.TraceIngestOptions{MaxRecords: *maxRecords, SkipMalformed: *skipBad}
		if err := runTrace(*tracePath, opts, ing, ro); err != nil {
			fatal(err)
		}
		return
	}

	kern, err := loadKernel(*kernelName, *kernelFile)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("kernel %s:\n%s\n", kern.Name, kern)
	if lines, err := memexplore.MinCacheLines(kern, opts.LineSizes[0]); err == nil {
		fmt.Printf("analytical minimum: %d cache lines (%d bytes at L=%d)\n\n",
			lines, lines*opts.LineSizes[0], opts.LineSizes[0])
	}

	var ms []memexplore.Metrics
	switch {
	case *icacheMode:
		ms, err = memexplore.ExploreICache(kern, memexplore.DefaultCodeGen(), opts)
	default:
		ms, err = memexplore.Explore(kern, opts)
	}
	if err != nil {
		fatal(err)
	}

	if !*icacheMode && !ro.writesFiles() {
		if plan := opts.Plan(); plan.Workloads < len(ms) {
			fmt.Printf("evaluated %d configurations over %d workload traces (%d trace passes saved by batching)\n",
				len(ms), plan.Workloads, len(ms)-plan.Workloads)
			if plan.InclusionGroups > 0 {
				fmt.Printf("inclusion engine: %d stack groups cover %d configurations, %d fall back — %.1f configs per pass\n",
					plan.InclusionGroups, plan.InclusionConfigs, plan.FallbackConfigs, plan.ConfigsPerPass())
			}
			fmt.Println()
		}
	}

	if err := reportSweep(ms, ro); err != nil {
		fatal(err)
	}
}

// reportOpts selects what the sweep report prints, or the files it
// writes instead.
type reportOpts struct {
	top         int
	cycleBound  float64
	energyBound float64
	pareto      bool
	csvPath     string
	jsonPath    string
}

// writesFiles reports whether the sweep goes to -csv or -json files
// rather than to the printed report.
func (ro reportOpts) writesFiles() bool { return ro.csvPath != "" || ro.jsonPath != "" }

// reportSweep writes the sweep to the -csv and -json files that are set
// or, when neither is, prints the top-N energy table, the optima and the
// optional bounded selections and Pareto frontier — shared by the
// kernel, trace, search and client modes.
func reportSweep(ms []memexplore.Metrics, ro reportOpts) error {
	if ro.writesFiles() {
		if ro.csvPath != "" {
			if err := writeCSV(ro.csvPath, ms); err != nil {
				return err
			}
		}
		if ro.jsonPath != "" {
			return writeJSON(ro.jsonPath, ms)
		}
		return nil
	}
	byEnergy := append([]memexplore.Metrics(nil), ms...)
	sort.SliceStable(byEnergy, func(i, j int) bool { return byEnergy[i].EnergyNJ < byEnergy[j].EnergyNJ })
	if ro.top > 0 && len(byEnergy) > ro.top {
		byEnergy = byEnergy[:ro.top]
	}
	tbl := report.New(fmt.Sprintf("lowest-energy configurations (%d of %d evaluated)", len(byEnergy), len(ms)),
		"config", "missrate", "cycles", "energy(nJ)")
	for _, m := range byEnergy {
		tbl.MustAdd(m.Label(), report.F(m.MissRate), report.F(m.Cycles), report.F(m.EnergyNJ))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	if minE, ok := memexplore.MinEnergy(ms); ok {
		fmt.Printf("minimum energy: %s  (%.0f nJ, %.0f cycles)\n", minE.Label(), minE.EnergyNJ, minE.Cycles)
	}
	if minC, ok := memexplore.MinCycles(ms); ok {
		fmt.Printf("minimum cycles: %s  (%.0f cycles, %.0f nJ)\n", minC.Label(), minC.Cycles, minC.EnergyNJ)
	}
	if m, ok := memexplore.MinEDP(ms); ok {
		fmt.Printf("minimum EDP:    %s  (%.3g nJ·cycles)\n", m.Label(), m.EDP())
	}
	if ro.cycleBound > 0 {
		if m, ok := memexplore.MinEnergyUnderCycleBound(ms, ro.cycleBound); ok {
			fmt.Printf("min energy under %.0f cycles: %s (%.0f nJ, %.0f cycles)\n",
				ro.cycleBound, m.Label(), m.EnergyNJ, m.Cycles)
		} else {
			fmt.Printf("no configuration meets the cycle bound %.0f\n", ro.cycleBound)
		}
	}
	if ro.energyBound > 0 {
		if m, ok := memexplore.MinCyclesUnderEnergyBound(ms, ro.energyBound); ok {
			fmt.Printf("min cycles under %.0f nJ: %s (%.0f cycles, %.0f nJ)\n",
				ro.energyBound, m.Label(), m.Cycles, m.EnergyNJ)
		} else {
			fmt.Printf("no configuration meets the energy bound %.0f nJ\n", ro.energyBound)
		}
	}
	if ro.pareto {
		fmt.Println()
		ptbl := report.New("cycles/energy Pareto frontier", "config", "cycles", "energy(nJ)")
		for _, m := range memexplore.ParetoFrontier(ms) {
			ptbl.MustAdd(m.Label(), report.F(m.Cycles), report.F(m.EnergyNJ))
		}
		if err := ptbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runSearch runs the budgeted NSGA-II search over a kernel or trace
// workload and reports the evolved Pareto archive with the usual sweep
// report (the "evaluated" counts in the tables are archive sizes, since
// only the archive survives the search).
func runSearch(kernelName, kernelFile, tracePath string, opts memexplore.Options,
	ing memexplore.TraceIngestOptions, sopts memexplore.SearchOptions,
	budget memexplore.SearchBudget, ro reportOpts) error {
	var res memexplore.SearchResult
	if tracePath != "" {
		if tracePath == "-" {
			return fmt.Errorf("-search needs a seekable trace file, not stdin: each generation rewinds and re-streams the trace")
		}
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		var st memexplore.TraceIngestStats
		res, st, err = memexplore.SearchTrace(context.Background(), f, opts, ing, sopts, budget)
		if err != nil {
			return err
		}
		fmt.Printf("trace %s: %s\n", tracePath, st)
	} else {
		kern, err := loadKernel(kernelName, kernelFile)
		if err != nil {
			return err
		}
		fmt.Printf("kernel %s:\n%s\n", kern.Name, kern)
		res, err = memexplore.SearchKernel(context.Background(), kern, opts, sopts, budget)
		if err != nil {
			return err
		}
	}
	fmt.Printf("guided search: evaluated %d of %d configurations in %d generations (%d memo hits), stopped by %s\n",
		res.Evaluations, res.SpacePoints, res.Generations, res.MemoHits, res.Stopped)
	fmt.Printf("Pareto archive: %d configurations\n\n", len(res.Archive))
	return reportSweep(res.Archive, ro)
}

// runTrace streams a recorded trace file through the sweep and reports
// the ingest profile alongside the usual sweep summary.
func runTrace(path string, opts memexplore.Options, ing memexplore.TraceIngestOptions, ro reportOpts) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	ms, st, err := memexplore.ExploreTrace(in, opts, ing)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %s\n", path, st)
	if st.ChunksSkipped > 0 {
		fmt.Printf("ingest: index skipped %d chunks (%d records) without decoding\n",
			st.ChunksSkipped, st.RecordsSkipped)
	}
	if st.StoredSampleRate > 0 {
		fmt.Printf("stored sample: artifact keeps rate %g (seed %d) of %d source records\n",
			st.StoredSampleRate, st.StoredSampleSeed, st.StoredSourceRecords)
	}
	if len(ms) > 0 && ms[0].SampleRate > 0 {
		maxCI := 0.0
		for _, m := range ms {
			if m.MissRateCI > maxCI {
				maxCI = m.MissRateCI
			}
		}
		seed := opts.SampleSeed
		if st.StoredSampleRate > 0 {
			seed = st.StoredSampleSeed
		}
		fmt.Printf("sampled: %d of %d records simulated (rate %g, seed %d)",
			ms[0].SampledRecords, st.Records, ms[0].SampleRate, seed)
		if maxCI > 0 {
			fmt.Printf(", miss-rate 95%% CI ≤ ±%.4f", maxCI)
		}
		fmt.Println()
	}
	if plan, err := memexplore.TraceSweepPlan(opts); err == nil {
		if plan.InclusionGroups > 0 {
			fmt.Printf("inclusion engine: %d stack groups cover %d configurations, %d fall back — %.1f configs per pass\n",
				plan.InclusionGroups, plan.InclusionConfigs, plan.FallbackConfigs, plan.ConfigsPerPass())
		}
		if len(plan.Shards) > 1 {
			fmt.Printf("pipelined engine: %d pass units sharded across %d workers %v\n",
				plan.PassUnits(), len(plan.Shards), plan.Shards)
		}
	}
	fmt.Println()
	return reportSweep(ms, ro)
}

// runConvert transcodes a trace into the columnar mxt v2 format —
// the fast path for traces that will be swept repeatedly. An output
// name ending in .gz is gzip-compressed (which forfeits up-front index
// skipping on later sweeps). A non-zero
// -sample-rate bakes transcode-time spatial sampling into the artifact,
// recorded in its index footer so sweeps rescale automatically.
func runConvert(inPath, outPath string, ing memexplore.TraceIngestOptions, wo memexplore.TraceWriterOptions) error {
	var in io.Reader = os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var out io.Writer = os.Stdout
	var file *os.File
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		file = f
		out = f
	}
	var zw *gzip.Writer
	if strings.HasSuffix(outPath, ".gz") {
		zw = gzip.NewWriter(out)
		out = zw
	}
	n, st, err := memexplore.TranscodeTraceV2Options(out, in, ing, wo)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if file != nil {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "transcoded %s: %s -> %d mxt v2 records (%s)\n", inPath, st, n, outPath)
	if wo.SampleRate > 0 {
		fmt.Fprintf(os.Stderr, "sampled at transcode time: rate %g, seed %d (recorded in the index footer)\n",
			wo.SampleRate, wo.SampleSeed)
	}
	return nil
}

func mustParseInts(list string) []int {
	out, err := parseInts(list)
	if err != nil {
		fatal(err)
	}
	return out
}

// parseInts parses a comma-separated integer list.
func parseInts(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list %q", list)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memexplore:", err)
	os.Exit(1)
}

// writeCSV dumps the sweep as comma-separated values.
func writeCSV(path string, ms []memexplore.Metrics) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	defer closeFn()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"cache", "line", "assoc", "tiling", "optimized",
		"accesses", "hits", "misses", "missrate",
		"cycles", "energy_nj", "e_dec", "e_cell", "e_io", "e_main", "addbs",
	}); err != nil {
		return err
	}
	for _, m := range ms {
		rec := []string{
			strconv.Itoa(m.CacheSize), strconv.Itoa(m.LineSize),
			strconv.Itoa(m.Assoc), strconv.Itoa(m.Tiling),
			strconv.FormatBool(m.Optimized),
			strconv.FormatUint(m.Accesses, 10), strconv.FormatUint(m.Hits, 10),
			strconv.FormatUint(m.Misses, 10),
			strconv.FormatFloat(m.MissRate, 'g', 8, 64),
			strconv.FormatFloat(m.Cycles, 'g', 10, 64),
			strconv.FormatFloat(m.EnergyNJ, 'g', 10, 64),
			strconv.FormatFloat(m.Energy.DecNJ, 'g', 8, 64),
			strconv.FormatFloat(m.Energy.CellNJ, 'g', 8, 64),
			strconv.FormatFloat(m.Energy.IONJ, 'g', 8, 64),
			strconv.FormatFloat(m.Energy.MainNJ, 'g', 8, 64),
			strconv.FormatFloat(m.AddBS, 'g', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeJSON dumps the sweep as a JSON array.
func writeJSON(path string, ms []memexplore.Metrics) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	defer closeFn()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}

// openOut opens path for writing, treating "-" as stdout.
func openOut(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// loadKernel resolves the workload: a file (parsed nest syntax) when given,
// else the named built-in benchmark.
func loadKernel(name, file string) (*memexplore.Nest, error) {
	if file == "" {
		return memexplore.Kernel(name)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return memexplore.ParseKernelReader(f)
}

// buildOptions assembles exploration options from the geometry flags.
func buildOptions(sizes, lines, assocs, tilings string, em float64, unoptimized bool) memexplore.Options {
	opts := memexplore.DefaultOptions()
	opts.CacheSizes = mustParseInts(sizes)
	opts.LineSizes = mustParseInts(lines)
	opts.Assocs = mustParseInts(assocs)
	opts.Tilings = mustParseInts(tilings)
	opts.OptimizeLayout = !unoptimized
	part := opts.Energy.Main
	part.EmNJ = em
	part.Name = fmt.Sprintf("main memory (Em=%.2f nJ)", em)
	opts.Energy = memexplore.DefaultEnergyParams(part)
	return opts
}

// runProgram aggregates a multi-kernel program (§5): "mpeg" uses the
// built-in decoder; otherwise the argument is a file of
// "<kernel-name-or-nest-file> <trip>" lines.
func runProgram(spec string, opts memexplore.Options) error {
	ws, err := loadProgram(spec)
	if err != nil {
		return err
	}
	agg, perKernel, err := memexplore.Aggregate(ws, opts)
	if err != nil {
		return err
	}
	tbl := report.New("per-kernel minimum-energy configurations", "kernel", "trip", "config", "energy(nJ)", "cycles")
	for _, k := range ws {
		best, ok := memexplore.MinEnergy(perKernel[k.Nest.Name])
		if !ok {
			continue
		}
		tbl.MustAdd(k.Nest.Name, fmt.Sprintf("%d", k.Trip), best.Label(), report.F(best.EnergyNJ), report.F(best.Cycles))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if minE, ok := memexplore.MinEnergy(agg); ok {
		fmt.Printf("program minimum energy: %s  (%.0f nJ, %.0f cycles)\n", minE.Label(), minE.EnergyNJ, minE.Cycles)
	}
	if minC, ok := memexplore.MinCycles(agg); ok {
		fmt.Printf("program minimum cycles: %s  (%.0f cycles, %.0f nJ)\n", minC.Label(), minC.Cycles, minC.EnergyNJ)
	}
	return nil
}

// loadProgram parses a program specification.
func loadProgram(spec string) ([]memexplore.WeightedKernel, error) {
	if spec == "mpeg" {
		return memexplore.MPEGDecoder(), nil
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	var ws []memexplore.WeightedKernel
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("program line %d: want \"<kernel|nestfile> <trip>\", got %q", ln+1, line)
		}
		trip, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("program line %d: bad trip %q: %w", ln+1, fields[1], err)
		}
		var n *memexplore.Nest
		if strings.ContainsAny(fields[0], "./") {
			f, err := os.Open(fields[0])
			if err != nil {
				return nil, err
			}
			n, err = memexplore.ParseKernelReader(f)
			f.Close()
			if err != nil {
				return nil, err
			}
		} else {
			n, err = memexplore.Kernel(fields[0])
			if err != nil {
				return nil, err
			}
		}
		ws = append(ws, memexplore.WeightedKernel{Nest: n, Trip: trip})
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("program %q lists no kernels", spec)
	}
	return ws, nil
}
