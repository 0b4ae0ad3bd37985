// Package memexplore is a reproduction of "Memory Exploration for Low
// Power, Embedded Systems" (Shiue & Chakrabarti, DAC 1999): a design-space
// exploration library that chooses an on-chip data-cache configuration —
// cache size T, line size L, set associativity S and tiling size B — for
// an embedded loop kernel, scored by three metrics: cache size, processor
// cycles, and energy.
//
// The package is a facade over the full implementation:
//
//   - a trace-driven cache simulator (direct-mapped and set-associative,
//     LRU/FIFO/random, 3C miss classification),
//   - an affine loop-nest IR that expresses the paper's benchmark kernels
//     and generates their memory-reference traces, with loop tiling,
//   - the paper's §2.2 cycle model and §2.3 energy model (Gray-coded
//     address-bus switching, SRAM main-memory catalog),
//   - the §3 analytical minimum-cache-size computation,
//   - the §4.1 off-chip memory assignment that eliminates conflict misses
//     for compatible access patterns,
//   - the MemExplore sweep with bounded selection and the §5 multi-kernel
//     aggregation.
//
// # Quick start
//
//	kern, _ := memexplore.Kernel("compress")
//	metrics, _ := memexplore.Explore(kern, memexplore.DefaultOptions())
//	best, _ := memexplore.MinEnergy(metrics)
//	fmt.Println(best.Label(), best.EnergyNJ)
//
// # Cancellation and typed errors
//
// Every explore entry point has a context-aware variant — ExploreContext,
// AggregateContext — that checks the context between config points, so
// long sweeps honor cancellation and deadlines; the plain variants are
// these with context.Background(). Options.Workers sets how many
// goroutines a sweep runs on (0 = GOMAXPROCS, 1 = sequential); results
// are identical at any value. Failures at the
// API boundary are typed: ErrUnknownKernel (Kernel), *ErrInvalidOptions
// (Options.Validate and the explore entry points), and ErrCanceled (the
// context variants, wrapped alongside ctx.Err()). Options, ConfigPoint
// and Metrics carry stable JSON tags, and Options.Normalize puts options
// in the canonical form the memexplored service caches on.
//
// See the examples/ directory for complete programs, DESIGN.md for the
// system inventory and per-experiment index, and docs/SERVICE.md for the
// cmd/memexplored HTTP service over this API.
package memexplore

import (
	"context"
	"io"
	"memexplore/internal/autotune"
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/energy"
	"memexplore/internal/extrace"
	"memexplore/internal/hierarchy"
	"memexplore/internal/icache"
	"memexplore/internal/kernels"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
	"memexplore/internal/reuse"
	"memexplore/internal/scratchpad"
	"memexplore/internal/search"
	"memexplore/internal/stackdist"
	"memexplore/internal/trace"
)

// Core exploration types.
type (
	// Metrics is the evaluation of one kernel under one configuration:
	// miss rate, cycles and energy for a (T, L, S, B) point.
	Metrics = core.Metrics
	// Options parameterizes an exploration sweep.
	Options = core.Options
	// ConfigPoint is one (T, L, S, B) point of the sweep space.
	ConfigPoint = core.ConfigPoint
	// Explorer evaluates configurations for one kernel with trace caching.
	Explorer = core.Explorer
	// WeightedKernel pairs a kernel with its §5 trip count.
	WeightedKernel = core.WeightedKernel
)

// Workload types.
type (
	// Nest is an affine loop nest — the workload description.
	Nest = loopir.Nest
	// Array declares a named array of a nest.
	Array = loopir.Array
	// Loop is one loop level of a nest.
	Loop = loopir.Loop
	// Ref is an array reference in a nest body.
	Ref = loopir.Ref
	// Expr is an affine index expression.
	Expr = loopir.Expr
	// Layout places a nest's arrays in off-chip memory.
	Layout = loopir.Layout
	// Placement positions one array (base address and padded strides).
	Placement = loopir.Placement
	// Trace is a memory-reference trace.
	Trace = trace.Trace
	// TraceRef is one memory reference.
	TraceRef = trace.Ref
)

// Cache-simulation types.
type (
	// CacheConfig describes a cache organization.
	CacheConfig = cachesim.Config
	// CacheStats reports simulation results.
	CacheStats = cachesim.Stats
	// Cache is a simulator instance for incremental use.
	Cache = cachesim.Cache
)

// Model types.
type (
	// EnergyParams holds the §2.3 energy-model coefficients.
	EnergyParams = energy.Params
	// SRAM describes an off-chip memory part (the Em source).
	SRAM = energy.SRAM
	// LayoutPlan is the result of the §4.1 assignment, with bookkeeping.
	LayoutPlan = layout.Plan
)

// Typed errors for the API boundary (see the package comment).
var (
	// ErrUnknownKernel is wrapped by Kernel for unregistered names.
	ErrUnknownKernel = kernels.ErrUnknownKernel
	// ErrCanceled is wrapped by the *Context entry points when their
	// context is canceled or expires mid-sweep.
	ErrCanceled = core.ErrCanceled
)

// ErrInvalidOptions is the structured validation error returned by
// Options.Validate and the explore entry points; retrieve it with
// errors.As to learn the offending wire field.
type ErrInvalidOptions = core.ErrInvalidOptions

// DefaultOptions returns the paper's sweep parameters: T ∈ 16..1024 bytes,
// L ∈ 4..64, S ∈ {1,2,4,8}, B ∈ {1..16}, §4.1 layout optimization on, and
// the Cypress CY7C main memory (Em = 4.95 nJ).
func DefaultOptions() Options { return core.DefaultOptions() }

// Explore runs the MemExplore sweep (§1 algorithm) for a kernel and
// returns one Metrics per legal configuration. Every sweep runs on the
// workload-grouped batched engine: each distinct trace is generated once
// and simulated for all of its cache configurations in a single pass
// (results are bit-identical to per-point evaluation).
func Explore(n *Nest, opts Options) ([]Metrics, error) { return core.Explore(n, opts) }

// ExploreContext is Explore with cancellation: the context is checked
// between workload groups and every few thousand references inside a
// sweep pass, and a canceled or expired context yields an error wrapping
// both ErrCanceled and ctx.Err().
func ExploreContext(ctx context.Context, n *Nest, opts Options) ([]Metrics, error) {
	return core.ExploreContext(ctx, n, opts)
}

// NewExplorer builds an incremental explorer for one kernel.
func NewExplorer(n *Nest, opts Options) (*Explorer, error) { return core.NewExplorer(n, opts) }

// Aggregate composes per-kernel sweeps into whole-program metrics using
// the §5 trip-count weighting.
func Aggregate(ks []WeightedKernel, opts Options) (program []Metrics, perKernel map[string][]Metrics, err error) {
	return core.Aggregate(ks, opts)
}

// AggregateContext is Aggregate with cancellation threaded through every
// per-kernel sweep.
func AggregateContext(ctx context.Context, ks []WeightedKernel, opts Options) (program []Metrics, perKernel map[string][]Metrics, err error) {
	return core.AggregateContext(ctx, ks, opts)
}

// Selection queries (§1, §3): the paper's bounded and unbounded optima.
func MinEnergy(ms []Metrics) (Metrics, bool) { return core.MinEnergy(ms) }

// MinCycles returns the minimum-time configuration.
func MinCycles(ms []Metrics) (Metrics, bool) { return core.MinCycles(ms) }

// MinEnergyUnderCycleBound returns the minimum-energy configuration whose
// cycle count does not exceed the bound ("time is the hard constraint").
func MinEnergyUnderCycleBound(ms []Metrics, bound float64) (Metrics, bool) {
	return core.MinEnergyUnderCycleBound(ms, bound)
}

// MinCyclesUnderEnergyBound returns the minimum-time configuration whose
// energy does not exceed the bound ("energy is the hard constraint").
func MinCyclesUnderEnergyBound(ms []Metrics, boundNJ float64) (Metrics, bool) {
	return core.MinCyclesUnderEnergyBound(ms, boundNJ)
}

// ParetoFrontier returns the Pareto-optimal (cycles, energy) tradeoff.
func ParetoFrontier(ms []Metrics) []Metrics { return core.ParetoFrontier(ms) }

// Kernel returns a benchmark kernel by name (see KernelNames).
func Kernel(name string) (*Nest, error) { return kernels.ByName(name) }

// KernelNames lists the registered benchmark kernels.
func KernelNames() []string { return kernels.Names() }

// PaperBenchmarks returns the five §2–4 kernels: Compress, Matrix
// Multiplication, PDE, SOR, Dequant.
func PaperBenchmarks() []*Nest { return kernels.PaperBenchmarks() }

// MPEGDecoder returns the nine §5 decoder kernels with their per-frame
// trip counts, ready for Aggregate.
func MPEGDecoder() []WeightedKernel {
	var ws []WeightedKernel
	for _, k := range kernels.MPEGKernels() {
		ws = append(ws, WeightedKernel{Nest: k.Nest, Trip: k.Trip})
	}
	return ws
}

// SequentialLayout packs a nest's arrays contiguously — the paper's
// unoptimized baseline.
func SequentialLayout(n *Nest, base uint64) Layout { return loopir.SequentialLayout(n, base) }

// OptimizeLayout computes the §4.1 conflict-avoiding off-chip assignment
// for a cache with the given line size and set count.
func OptimizeLayout(n *Nest, lineBytes, sets int) (*LayoutPlan, error) {
	return layout.Optimize(n, lineBytes, sets)
}

// Tile applies rectangular loop tiling (§4.2) to every level of the nest.
func Tile(n *Nest, size int) (*Nest, error) { return loopir.TileAll(n, size) }

// GenerateTrace executes a nest under a layout and returns its
// memory-reference trace.
func GenerateTrace(n *Nest, l Layout) (*Trace, error) { return n.Generate(l) }

// NewCacheConfig returns the paper's baseline cache policies
// (write-allocate, write-back, LRU) for a (T, L, S) triple.
func NewCacheConfig(sizeBytes, lineBytes, assoc int) CacheConfig {
	return cachesim.DefaultConfig(sizeBytes, lineBytes, assoc)
}

// Simulate runs a trace through a cache of the given configuration with
// 3C miss classification.
func Simulate(cfg CacheConfig, tr *Trace) (CacheStats, error) {
	cfg.Classify = true
	return cachesim.RunTrace(cfg, tr)
}

// NewCache builds an incremental cache simulator with 3C miss
// classification.
func NewCache(cfg CacheConfig) (*Cache, error) {
	cfg.Classify = true
	return cachesim.New(cfg)
}

// MinCacheSize returns the §3 analytical minimum cache size in bytes for
// the given line size.
func MinCacheSize(n *Nest, lineBytes int) (int, error) { return reuse.MinCacheSize(n, lineBytes) }

// MinCacheLines returns the §3 analytical minimum number of cache lines.
func MinCacheLines(n *Nest, lineBytes int) (int, error) { return reuse.MinLines(n, lineBytes) }

// DefaultEnergyParams returns the §2.3 coefficients for the given
// main-memory part.
func DefaultEnergyParams(main SRAM) EnergyParams { return energy.DefaultParams(main) }

// SRAMCatalog returns the three main-memory parts the paper uses
// (Em = 4.95, 2.31 and 43.56 nJ).
func SRAMCatalog() []SRAM { return energy.Catalog() }

// Extension types: reuse-distance analysis and the §6 instruction-cache
// extension.
type (
	// EnergyBreakdown splits a Metrics' energy into the §2.3 components.
	EnergyBreakdown = core.EnergyBreakdown
	// ReuseHistogram is the LRU stack-distance profile of a trace.
	ReuseHistogram = stackdist.Histogram
	// CodeGen fixes the code-layout model for instruction-cache studies.
	CodeGen = icache.CodeGen
	// JointChoice is a combined instruction+data cache selection.
	JointChoice = icache.JointChoice
)

// MinEDP returns the configuration with the lowest energy–delay product.
func MinEDP(ms []Metrics) (Metrics, bool) { return core.MinEDP(ms) }

// SweepPlan describes how a sweep partitions into simulation pass units
// before it runs: trace-generation workloads, inclusion groups (one
// per-set LRU stack level covering every associativity of a (line, sets)
// geometry, walked together with the other levels of its line size) and
// per-configuration fallbacks. Options.Plan computes it.
type SweepPlan = core.SweepPlan

// TraceSweepPlan is Options.Plan for an external-trace sweep (the options
// restricted to what a recorded trace can vary, a single trace pass).
func TraceSweepPlan(opts Options) (SweepPlan, error) { return core.TraceSweepPlan(opts) }

// EvaluateTrace scores an arbitrary pre-generated trace under one cache
// configuration with the §2.2/§2.3 models, filling ConflictMisses when
// cfg.Classify is set.
func EvaluateTrace(tr *Trace, cfg CacheConfig, tiling int, p EnergyParams) (Metrics, error) {
	return core.EvaluateTrace(tr, cfg, tiling, p)
}

// TraceAddBS measures the Gray-coded address-bus switching per access of
// a trace (the Add_bs input of the §2.3 energy model). It depends only
// on the trace: measure once, then score many configurations with
// EvaluateTraceMeasured.
func TraceAddBS(tr *Trace) float64 { return core.TraceAddBS(tr) }

// EvaluateTraceMeasured is EvaluateTrace with the trace's AddBS supplied
// by the caller (see TraceAddBS), avoiding a re-scan of the trace per
// configuration when one trace is scored under many caches.
func EvaluateTraceMeasured(tr *Trace, addBS float64, cfg CacheConfig, tiling int, p EnergyParams) (Metrics, error) {
	return core.EvaluateTraceMeasured(tr, addBS, cfg, tiling, p)
}

// WarmTrace composes the kernels into one shared-cache pipeline trace
// (trips divided by scale), the warm counterpart of Aggregate's cold
// composition.
func WarmTrace(ks []WeightedKernel, scale int64) (*Trace, error) {
	return core.WarmTrace(ks, scale)
}

// ComputeReuse builds the reuse-distance histogram of a trace at the
// given line size; Histogram.MissRate gives the fully associative LRU
// miss rate at any capacity in one pass.
func ComputeReuse(tr *Trace, lineBytes int) (*ReuseHistogram, error) {
	return stackdist.Compute(tr, lineBytes)
}

// DefaultCodeGen returns the 32-bit embedded code-layout model used by
// the instruction-cache extension.
func DefaultCodeGen() CodeGen { return icache.DefaultCodeGen() }

// InstructionTrace lowers a loop nest to its instruction-fetch trace
// under the code model.
func InstructionTrace(n *Nest, g CodeGen) (*Trace, error) { return icache.FetchTrace(n, g) }

// CodeBytes returns a nest's static code footprint under the code model.
func CodeBytes(n *Nest, g CodeGen) (int, error) { return icache.CodeBytes(n, g) }

// ExploreICache sweeps instruction-cache configurations for a kernel —
// the paper's §6 extension.
func ExploreICache(n *Nest, g CodeGen, opts Options) ([]Metrics, error) {
	return icache.Explore(n, g, opts)
}

// ExploreJoint merges instruction- and data-cache sweeps under a shared
// on-chip capacity budget (0 = unbounded).
func ExploreJoint(instr, data []Metrics, budgetBytes int) (JointChoice, bool) {
	return icache.ExploreJoint(instr, data, budgetBytes)
}

// ParseKernel parses a loop nest from its textual form — the same syntax
// Nest.String() prints (see internal/loopir.Parse for the grammar). It
// lets the CLI tools and downstream users define their own kernels in
// plain text files.
func ParseKernel(src string) (*Nest, error) { return loopir.Parse(src) }

// ParseKernelReader is ParseKernel over an io.Reader.
func ParseKernelReader(r io.Reader) (*Nest, error) { return loopir.ParseReader(r) }

// Unroll unrolls a nest's innermost loop by the given factor.
func Unroll(n *Nest, factor int) (*Nest, error) { return loopir.Unroll(n, factor) }

// Interchange swaps two loop levels of a nest.
func Interchange(n *Nest, a, b int) (*Nest, error) { return loopir.Interchange(n, a, b) }

// AnalyzeTrace profiles a trace: access mix, footprint, stride histogram.
func AnalyzeTrace(tr *Trace) TraceProfile { return trace.Analyze(tr) }

// TraceProfile summarizes a trace's statistical shape.
type TraceProfile = trace.Profile

// External-trace ingestion types (internal/extrace): streaming readers for
// recorded application traces in the textual din format or the mxt binary
// format, with transparent gzip decompression.
type (
	// TraceIngestOptions bounds and shapes trace ingestion: record and
	// line-length limits and the malformed-record policy.
	TraceIngestOptions = extrace.Options
	// TraceIngestStats is the single-pass statistical profile accumulated
	// while a trace streams through ingestion.
	TraceIngestStats = extrace.IngestStats
	// TraceParseError pinpoints a malformed trace record (line number for
	// din, byte offset for both formats); retrieve it with errors.As.
	TraceParseError = extrace.ParseError
	// TraceReader streams records from an external trace with constant
	// memory; its Read fills []TraceRef chunks.
	TraceReader = extrace.Reader
	// TraceWriterOptions shapes mxt v2 encoding: transcode-time spatial
	// sampling (rate and seed recorded in the artifact's index footer so
	// sweeps rescale correctly) and index suppression.
	TraceWriterOptions = extrace.V2WriterOptions
	// TraceIndex is the parsed MXTI01 index footer of an mxt v2 artifact:
	// per-chunk byte frames, record counts and granule summaries, the
	// encode-time ingest profile, and any transcode-time sampling
	// parameters.
	TraceIndex = extrace.TraceIndex
)

// External-trace typed errors.
var (
	// ErrEmptyTrace is returned by the trace-sweep entry points when the
	// stream ends without a single accepted record.
	ErrEmptyTrace = core.ErrEmptyTrace
	// ErrTraceRecordLimit is wrapped by ingestion when a stream exceeds
	// TraceIngestOptions.MaxRecords.
	ErrTraceRecordLimit = extrace.ErrRecordLimit
)

// ExploreTrace runs the MemExplore sweep over an external application
// trace streamed from r (din or binary, gzip transparently detected) in
// one sequential, constant-memory pass: every (T, L, S) configuration and
// the Gray-code bus measurement consume the stream chunk by chunk, so the
// trace is never materialized and its length is unbounded. Tiling and
// layout optimization do not apply to recorded traces (they are
// generation-time transforms); the returned IngestStats profiles whatever
// was ingested, even when an error is returned.
func ExploreTrace(r io.Reader, opts Options, ing TraceIngestOptions) ([]Metrics, TraceIngestStats, error) {
	return core.ExploreTrace(r, opts, ing)
}

// ExploreTraceReader is ExploreTrace with cancellation: the context is
// checked at every chunk boundary, and a canceled or expired context
// yields an error wrapping both ErrCanceled and ctx.Err().
func ExploreTraceReader(ctx context.Context, r io.Reader, opts Options, ing TraceIngestOptions) ([]Metrics, TraceIngestStats, error) {
	return core.ExploreTraceReader(ctx, r, opts, ing)
}

// NewTraceReader opens a streaming reader over an external trace for
// callers that want the records themselves rather than a sweep.
func NewTraceReader(r io.Reader, ing TraceIngestOptions) *TraceReader {
	return extrace.NewReader(r, ing)
}

// WriteDinTrace encodes a trace in the textual din format (see
// docs/TRACE_FORMAT.md) and reports the record count.
func WriteDinTrace(w io.Writer, tr *Trace) (int64, error) {
	return extrace.WriteDin(w, tr.Reader())
}

// WriteBinaryV2Trace encodes a trace in the columnar mxt v2 format —
// delta-compressed address column, packed kind stream, per-chunk CRC —
// the one mxt form the module writes. It round-trips every TraceRef
// bit-exactly through NewTraceReader, which also reads mxt v1.
func WriteBinaryV2Trace(w io.Writer, tr *Trace) (int64, error) {
	return extrace.WriteBinaryV2(w, tr.Reader())
}

// TranscodeTraceV2 re-encodes any readable trace stream (din or mxt,
// gzip transparently detected) into the columnar mxt v2 format, writing
// to w and reporting the encoded byte count plus the ingest profile of
// the source stream.
func TranscodeTraceV2(w io.Writer, r io.Reader, ing TraceIngestOptions) (int64, TraceIngestStats, error) {
	return extrace.TranscodeV2(w, r, ing)
}

// TranscodeTraceV2Options is TranscodeTraceV2 with writer options:
// transcode-time spatial sampling (the artifact keeps a deterministic
// ~rate fraction of the address space, recorded in its MXTI01 footer so
// sweeps rescale automatically and refuse conflicting re-sampling) and
// index suppression. Re-encoding an already-sampled artifact is refused.
func TranscodeTraceV2Options(w io.Writer, r io.Reader, ing TraceIngestOptions, wo TraceWriterOptions) (int64, TraceIngestStats, error) {
	return extrace.TranscodeV2Options(w, r, ing, wo)
}

// ProbeTraceIndex reads the MXTI01 index footer of a seekable mxt v2
// stream without consuming it (the read offset is restored). It returns
// nil for any non-v2, gzipped, non-seekable, index-less or corrupt
// input — probing never fails.
func ProbeTraceIndex(r io.Reader) *TraceIndex {
	return extrace.ProbeIndex(r)
}

// Scratchpad types and helpers (the Panda/Dutt on-chip alternative).
type (
	// SPMParams fixes the scratchpad cost model.
	SPMParams = scratchpad.Params
	// SPMAssignment records which arrays live on-chip.
	SPMAssignment = scratchpad.Assignment
	// SPMMetrics is the scratchpad evaluation triple.
	SPMMetrics = scratchpad.Metrics
)

// DefaultSPMParams derives scratchpad parameters consistent with the
// cache energy model for the given main memory.
func DefaultSPMParams(main SRAM) SPMParams { return scratchpad.DefaultParams(main) }

// AssignSPM packs a nest's arrays into a scratchpad of the given capacity
// greedily by access density.
func AssignSPM(n *Nest, capacityBytes int) (SPMAssignment, error) {
	return scratchpad.Assign(n, capacityBytes)
}

// ExploreSPM evaluates the greedy scratchpad assignment at every candidate
// capacity.
func ExploreSPM(n *Nest, capacities []int, p SPMParams) ([]SPMMetrics, error) {
	return scratchpad.Explore(n, capacities, p)
}

// Two-level hierarchy types and helpers (the ext-l2 extension).
type (
	// HierarchyConfig is an (L1, L2) cache pair.
	HierarchyConfig = hierarchy.Config
	// HierarchyMetrics is the two-level evaluation result.
	HierarchyMetrics = hierarchy.Metrics
	// HierarchyStats carries per-level simulation statistics.
	HierarchyStats = hierarchy.Stats
)

// SimulateHierarchy runs a trace through an L1+L2 pair.
func SimulateHierarchy(cfg HierarchyConfig, tr *Trace) (HierarchyStats, error) {
	return hierarchy.Run(cfg, tr)
}

// EvaluateHierarchy scores a trace on a two-level configuration with the
// extended cycle and energy models.
func EvaluateHierarchy(cfg HierarchyConfig, tr *Trace, p EnergyParams) (HierarchyMetrics, error) {
	return hierarchy.Evaluate(cfg, tr, p)
}

// ExploreHierarchy sweeps (L1, L2) size pairs over a trace.
func ExploreHierarchy(tr *Trace, l1Sizes, l2Sizes []int, l1Line, l2Line, assoc int, p EnergyParams) ([]HierarchyMetrics, error) {
	return hierarchy.Explore(tr, l1Sizes, l2Sizes, l1Line, l2Line, assoc, p)
}

// Fuse merges two nests with identical loop structures into one (classic
// loop fusion).
func Fuse(a, b *Nest) (*Nest, error) { return loopir.Fuse(a, b) }

// Replacement policies for CacheConfig / Options.Replacement.
const (
	// LRU evicts the least recently used line (the paper's policy).
	LRU = cachesim.LRU
	// FIFO evicts the oldest-filled line.
	FIFO = cachesim.FIFO
	// RandomReplacement evicts a pseudo-random line (deterministic).
	RandomReplacement = cachesim.Random
)

// Autotune types and helpers (the codesign extension).
type (
	// TuneConfig parameterizes the transformation × cache search.
	TuneConfig = autotune.Config
	// TuneResult scores one transformed variant with its best cache pair.
	TuneResult = autotune.Result
)

// DefaultTuneConfig returns a sensible search space.
func DefaultTuneConfig() TuneConfig { return autotune.DefaultConfig() }

// Tune searches loop-transformation variants × data cache × instruction
// cache for the minimum total energy under an optional shared budget,
// returning all scored variants and the index of the best.
func Tune(n *Nest, cfg TuneConfig) ([]TuneResult, int, error) { return autotune.Tune(n, cfg) }

// Guided multi-objective search types and helpers (internal/search):
// budgeted NSGA-II evolution over the configuration space for spaces too
// large to sweep exhaustively. See docs/SEARCH.md.
type (
	// SearchOptions parameterizes the evolutionary operators; the seed
	// makes runs bit-reproducible at any worker count.
	SearchOptions = search.Options
	// SearchBudget bounds a search run by evaluations, generations,
	// and/or wall clock (at least one bound is required).
	SearchBudget = search.Budget
	// SearchResult is a finished run: the Pareto archive over every
	// evaluated point plus the evaluation accounting and stop reason.
	SearchResult = search.Result
	// ErrInvalidSearch reports invalid search parameters with the
	// offending wire field named; retrieve it with errors.As.
	ErrInvalidSearch = search.InvalidError
)

// DefaultSearchOptions returns the default operator parameters.
func DefaultSearchOptions() SearchOptions { return search.DefaultOptions() }

// SearchKernel runs a budgeted NSGA-II search over a kernel workload's
// configuration space; opts.Workers parallelizes the inner sweeps without
// affecting the archive.
func SearchKernel(ctx context.Context, n *Nest, opts Options, sopts SearchOptions, budget SearchBudget) (SearchResult, error) {
	return search.Kernel(ctx, n, opts, sopts, budget)
}

// SearchTrace runs the search over a recorded trace. The source must be
// seekable (each generation rewinds and streams it); tiling and layout
// optimization are pinned off as in ExploreTrace.
func SearchTrace(ctx context.Context, src io.ReadSeeker, opts Options, ing TraceIngestOptions, sopts SearchOptions, budget SearchBudget) (SearchResult, TraceIngestStats, error) {
	return search.Trace(ctx, src, opts, ing, sopts, budget)
}

// SearchHypervolume measures the (cycles, energy) area a frontier
// dominates under the given reference point — the scalar archive-quality
// metric used to compare search strategies.
func SearchHypervolume(ms []Metrics, refCycles, refEnergyNJ float64) float64 {
	return search.Hypervolume(ms, refCycles, refEnergyNJ)
}

// Dominates reports whether a Pareto-dominates b in the (cycles, energy)
// plane: no worse in both objectives, strictly better in at least one.
func Dominates(a, b Metrics) bool { return core.Dominates(a, b) }
