// Package core implements the paper's MemExplore algorithm (§1):
//
//	for on-chip memory size M (powers of 2)
//	  for cache size T ≤ M (powers of 2)
//	    for line size L < T (powers of 2)
//	      for set associativity S ≤ 8 (powers of 2)
//	        for tiling size B ≤ T/L (powers of 2)
//	          estimate miss rate, cycles C and energy E
//	select (T, L, S, B) that maximizes performance
//
// Estimation is by exact trace-driven simulation of the kernel (not the
// paper's closed forms — see DESIGN.md): the kernel is tiled (§4.2), its
// arrays are placed by the §4.1 off-chip assignment (or sequentially for
// the unoptimized baseline), the resulting reference trace is run through
// the cache simulator, and the §2.2 cycle and §2.3 energy models score the
// outcome. Selection helpers implement the paper's bounded queries —
// minimum-energy configuration under a cycle bound and vice versa — and
// the §5 trip-count-weighted aggregation for multi-kernel programs.
package core

import (
	"context"
	"fmt"
	"sort"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/cycles"
	"memexplore/internal/energy"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// Metrics is the outcome of evaluating one kernel under one configuration.
// The JSON tags are the wire form served by cmd/memexplored and written by
// cmd/memexplore -json; they are stable API.
type Metrics struct {
	// CacheSize, LineSize, Assoc, Tiling identify the configuration — the
	// paper's (T, L, S, B).
	CacheSize int `json:"cache_size"`
	LineSize  int `json:"line_size"`
	Assoc     int `json:"assoc"`
	Tiling    int `json:"tiling"`
	// Optimized reports whether the §4.1 off-chip assignment was applied.
	Optimized bool `json:"optimized"`

	// Accesses, Hits, Misses are absolute counts from the simulator;
	// MissRate is Misses/Accesses (per-reference accounting).
	Accesses uint64  `json:"accesses"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	// ConflictMisses is filled only when Options.Classify is set.
	ConflictMisses uint64 `json:"conflict_misses,omitempty"`

	// Cycles is the §2.2 processor-cycle estimate.
	Cycles float64 `json:"cycles"`
	// EnergyNJ is the §2.3 energy estimate in nanojoules.
	EnergyNJ float64 `json:"energy_nj"`
	// Energy is the per-component decomposition of EnergyNJ.
	Energy EnergyBreakdown `json:"energy_breakdown"`
	// AddBS is the measured Gray-code address-bus switching per access.
	AddBS float64 `json:"add_bs"`

	// SampleRate, SampledRecords and MissRateCI form the estimation
	// envelope of a sampled external-trace sweep (see
	// Options.SampleRate): the configured spatial sampling rate, the
	// records actually simulated, and the half-width of the 95%
	// confidence interval on MissRate due to sampling. All three are
	// zero — and absent from the JSON form — for exact sweeps, so exact
	// results are byte-identical to previous releases.
	SampleRate     float64 `json:"sample_rate,omitempty"`
	SampledRecords int64   `json:"sampled_records,omitempty"`
	MissRateCI     float64 `json:"miss_rate_ci,omitempty"`
}

// EnergyBreakdown splits the total energy into the §2.3 components, in
// nanojoules: the address-decoding path, the cell arrays, the I/O pads,
// and main-memory accesses — plus the optional extension terms
// (static leakage and write-back traffic), which are zero under the
// paper's defaults.
type EnergyBreakdown struct {
	DecNJ   float64 `json:"dec_nj"`
	CellNJ  float64 `json:"cell_nj"`
	IONJ    float64 `json:"io_nj"`
	MainNJ  float64 `json:"main_nj"`
	LeakNJ  float64 `json:"leak_nj,omitempty"`
	WriteNJ float64 `json:"write_nj,omitempty"`
}

// Total returns the summed components.
func (b EnergyBreakdown) Total() float64 {
	return b.DecNJ + b.CellNJ + b.IONJ + b.MainNJ + b.LeakNJ + b.WriteNJ
}

// add accumulates o scaled by w.
func (b *EnergyBreakdown) add(o EnergyBreakdown, w float64) {
	b.DecNJ += o.DecNJ * w
	b.CellNJ += o.CellNJ * w
	b.IONJ += o.IONJ * w
	b.MainNJ += o.MainNJ * w
	b.LeakNJ += o.LeakNJ * w
	b.WriteNJ += o.WriteNJ * w
}

// EDP returns the energy–delay product (nJ·cycles), a common derived
// objective for low-power design; selection by EDP is provided by MinEDP.
func (m Metrics) EDP() float64 { return m.EnergyNJ * m.Cycles }

// Config returns the cache configuration of the metrics.
func (m Metrics) Config() cachesim.Config {
	return cachesim.DefaultConfig(m.CacheSize, m.LineSize, m.Assoc)
}

// Label renders the configuration in the paper's style, e.g.
// "C64L8S2B4".
func (m Metrics) Label() string {
	return fmt.Sprintf("C%dL%dS%dB%d", m.CacheSize, m.LineSize, m.Assoc, m.Tiling)
}

// Options parameterizes an exploration sweep. The zero value is not
// useful; start from DefaultOptions, or call Normalize to fill defaults.
// The JSON tags are the wire form accepted by cmd/memexplored; they are
// stable API.
type Options struct {
	// CacheSizes are the candidate T values in bytes (powers of two).
	CacheSizes []int `json:"cache_sizes"`
	// LineSizes are the candidate L values in bytes (powers of two; only
	// values with §2.2 miss-penalty entries are legal).
	LineSizes []int `json:"line_sizes"`
	// Assocs are the candidate S values (1, 2, 4, 8).
	Assocs []int `json:"assocs"`
	// Tilings are the candidate B values; each is additionally capped at
	// T/L during the sweep, per the algorithm.
	Tilings []int `json:"tilings"`
	// MaxOnChip is M, the on-chip memory bound: configurations with
	// T > MaxOnChip are skipped. Zero means no bound.
	MaxOnChip int `json:"max_on_chip,omitempty"`
	// OptimizeLayout applies the §4.1 off-chip assignment; when false the
	// arrays are packed sequentially (the "unoptimized" columns of
	// Figures 5 and 9).
	OptimizeLayout bool `json:"optimize_layout"`
	// Energy supplies the §2.3 coefficients and the main-memory part.
	Energy energy.Params `json:"energy"`
	// Classify enables 3C miss classification (slower; fills
	// ConflictMisses).
	Classify bool `json:"classify,omitempty"`
	// Replacement overrides the within-set victim policy (default LRU,
	// the paper's implicit choice).
	Replacement cachesim.Replacement `json:"replacement,omitempty"`
	// WriteThrough switches the cache from write-back (the default) to
	// write-through.
	WriteThrough bool `json:"write_through,omitempty"`
	// NoWriteAllocate disables allocation on write misses.
	NoWriteAllocate bool `json:"no_write_allocate,omitempty"`
	// VictimLines attaches a fully associative victim buffer of that many
	// lines to every simulated cache (0 = none; an extension knob — the
	// ext-victim exhibit compares it against the §4.1 layout).
	VictimLines int `json:"victim_lines,omitempty"`
	// SampleRate, when in (0, 1), turns on SHARDS-style spatial sampling
	// for external-trace sweeps: a seeded hash threshold over block
	// addresses keeps a deterministic ~SampleRate fraction of the address
	// space, counts are rescaled, and each Metrics carries the estimation
	// envelope (SampledRecords, MissRateCI). 0 or 1 is exact. Unlike
	// Workers, sampling changes results, so these fields ARE
	// part of the wire form and the cache key. Kernel sweeps reject it:
	// generated traces are cheap to produce exactly.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// SampleSeed seeds the sampling hash; distinct seeds draw distinct
	// spatial samples. Meaningful only with SampleRate set.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
	// Workers is the worker goroutine count of every sweep: 0 means
	// GOMAXPROCS, 1 runs sequentially. A kernel sweep runs its workload
	// groups in parallel, or, with more workers than groups, splits each
	// group's trace across them; a trace sweep splits the stream. Results
	// are bit-identical at any value, so Workers is not part of the wire
	// form or the cache key.
	Workers int `json:"-"`
}

// cacheConfig builds the simulator configuration for a sweep point under
// the options' policies.
func (o Options) cacheConfig(size, line, assoc int) cachesim.Config {
	cfg := cachesim.DefaultConfig(size, line, assoc)
	cfg.Replacement = o.Replacement
	cfg.WriteBack = !o.WriteThrough
	cfg.WriteAllocate = !o.NoWriteAllocate
	cfg.VictimLines = o.VictimLines
	cfg.Classify = o.Classify
	return cfg
}

// cacheConfigs builds the simulator configurations of the points under
// the options' policies, in point order.
func cacheConfigs(o Options, points []ConfigPoint) []cachesim.Config {
	cfgs := make([]cachesim.Config, len(points))
	for i, p := range points {
		cfgs[i] = o.cacheConfig(p.CacheSize, p.LineSize, p.Assoc)
	}
	return cfgs
}

// DefaultOptions returns the paper's sweep: T ∈ 16..1024, L ∈ 4..64,
// S ∈ {1,2,4,8}, B ∈ {1..16}, optimized layout, Cypress CY7C main memory.
func DefaultOptions() Options {
	return Options{
		CacheSizes:     []int{16, 32, 64, 128, 256, 512, 1024},
		LineSizes:      []int{4, 8, 16, 32, 64},
		Assocs:         []int{1, 2, 4, 8},
		Tilings:        []int{1, 2, 4, 8, 16},
		OptimizeLayout: true,
		Energy:         energy.DefaultParams(energy.CypressCY7C()),
	}
}

// Validate checks the options. Structural problems are reported as
// *ErrInvalidOptions with the offending wire field named.
func (o Options) Validate() error {
	for _, c := range []struct {
		field string
		vals  []int
	}{
		{"cache_sizes", o.CacheSizes},
		{"line_sizes", o.LineSizes},
		{"assocs", o.Assocs},
		{"tilings", o.Tilings},
	} {
		if len(c.vals) == 0 {
			return invalidOptions(c.field, "must list at least one candidate")
		}
	}
	for _, l := range o.LineSizes {
		if _, err := cycles.CyclesPerMiss(l); err != nil {
			return invalidOptions("line_sizes", "line size %d has no cycle-model entry: %v", l, err)
		}
	}
	for _, b := range o.Tilings {
		if b < 1 {
			return invalidOptions("tilings", "tiling size %d must be ≥ 1", b)
		}
	}
	for _, s := range o.Assocs {
		if s < 1 {
			return invalidOptions("assocs", "associativity %d must be ≥ 1", s)
		}
	}
	if o.VictimLines < 0 {
		return invalidOptions("victim_lines", "negative victim buffer size %d", o.VictimLines)
	}
	if o.SampleRate < 0 || o.SampleRate > 1 || (o.SampleRate != o.SampleRate) {
		return invalidOptions("sample_rate", "sampling rate %g must be in [0, 1]", o.SampleRate)
	}
	if err := o.Energy.Validate(); err != nil {
		return invalidOptions("energy", "%v", err)
	}
	return nil
}

// Normalize returns a canonical copy of the options: empty candidate
// lists and a zero Energy are filled from DefaultOptions, and every
// candidate list is sorted ascending with duplicates removed. Two Options
// values that describe the same sweep normalize to identical structs, so
// the normalized form (and its JSON encoding) is a sound cache key — the
// service layer relies on this. Normalize does not validate; an absurd
// but non-empty list survives it and is caught by Validate.
func (o Options) Normalize() Options {
	d := DefaultOptions()
	norm := func(vals, def []int) []int {
		if len(vals) == 0 {
			return def
		}
		out := append([]int(nil), vals...)
		sort.Ints(out)
		w := 1
		for i := 1; i < len(out); i++ {
			if out[i] != out[w-1] {
				out[w] = out[i]
				w++
			}
		}
		return out[:w]
	}
	o.CacheSizes = norm(o.CacheSizes, d.CacheSizes)
	o.LineSizes = norm(o.LineSizes, d.LineSizes)
	o.Assocs = norm(o.Assocs, d.Assocs)
	o.Tilings = norm(o.Tilings, d.Tilings)
	if o.Energy == (energy.Params{}) {
		o.Energy = d.Energy
	}
	// A rate of 1 is the exact sweep; canonicalize it to 0 so both
	// spellings share one cache key. Without sampling the seed is inert —
	// zero it for the same reason.
	if o.SampleRate == 1 {
		o.SampleRate = 0
	}
	if o.SampleRate == 0 {
		o.SampleSeed = 0
	}
	return o
}

// rejectSampling refuses trace sampling for kernel sweeps, whose traces
// are generated and therefore cheap to run exactly.
func (o Options) rejectSampling() error {
	if o.SampleRate != 0 {
		return invalidOptions("sample_rate", "trace sampling applies only to external-trace sweeps")
	}
	return nil
}

// Explorer evaluates configurations for one kernel, caching generated
// traces (and their measured bus activity) across a sweep. A trace depends
// only on the tiling and the layout; sequential layouts are shared across
// all cache geometries, while optimized layouts are keyed by (L, sets).
// Each tiling's nest is tiled and compiled once, into one
// layout.Sequential built for that tiling's geometries in the sweep
// space, which generates and counts the sequential trace once for every
// geometry's §4.1 guard.
type Explorer struct {
	nest *loopir.Nest
	opts Options

	seqs   map[int]*layout.Sequential
	traces map[traceKey]*tracedWorkload
}

type traceKey struct {
	tiling    int
	optimized bool
	lineBytes int // zero for sequential layouts
	sets      int // zero for sequential layouts
}

type tracedWorkload struct {
	tr    *trace.Trace
	addBS float64
}

// NewExplorer builds an explorer for one kernel.
func NewExplorer(n *loopir.Nest, opts Options) (*Explorer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &Explorer{
		nest:   n,
		opts:   opts,
		seqs:   map[int]*layout.Sequential{},
		traces: map[traceKey]*tracedWorkload{},
	}, nil
}

// Nest returns the kernel being explored.
func (e *Explorer) Nest() *loopir.Nest { return e.nest }

// sequential returns tiling b's sequential layout, tiling the nest on
// first use. Under OptimizeLayout it is built for the direct-mapped
// geometries (L, T/L) of the tiling's points in the sweep space; a
// geometry outside the space is still guarded, counted on its own.
func (e *Explorer) sequential(b int) (*layout.Sequential, error) {
	if s, ok := e.seqs[b]; ok {
		return s, nil
	}
	n, err := loopir.TileAll(e.nest, b)
	if err != nil {
		return nil, err
	}
	var geoms []layout.Geometry
	if e.opts.OptimizeLayout {
		for _, p := range e.opts.Space() {
			if p.Tiling == b {
				geoms = append(geoms, layout.Geometry{LineBytes: p.LineSize, Sets: p.CacheSize / p.LineSize})
			}
		}
	}
	s, err := layout.NewSequential(n, geoms)
	if err != nil {
		return nil, err
	}
	e.seqs[b] = s
	return s, nil
}

func (e *Explorer) workload(tiling int, cfg cachesim.Config) (*tracedWorkload, error) {
	// The §4.1 assignment targets the direct-mapped mapping of the (T, L)
	// geometry — T/L sets — independent of S: associativity only merges
	// sets and can absorb residual overlaps, and keeping the layout fixed
	// across S isolates associativity's effect in the sweep.
	key := traceKey{tiling: tiling, optimized: e.opts.OptimizeLayout}
	if e.opts.OptimizeLayout {
		key.lineBytes = cfg.LineBytes
		key.sets = cfg.NumLines()
	}
	if w, ok := e.traces[key]; ok {
		return w, nil
	}
	seq, err := e.sequential(tiling)
	if err != nil {
		return nil, err
	}
	// The chosen layout's trace comes back from the guard: the
	// sequential trace itself, or a padded plan's, which the Explorer
	// keeps for its lifetime rather than releasing.
	var tr *trace.Trace
	if e.opts.OptimizeLayout {
		_, tr, err = layout.OptimizeTrace(context.TODO(), seq, cfg.LineBytes, cfg.NumLines())
	} else {
		tr, err = seq.Trace()
	}
	if err != nil {
		return nil, err
	}
	w := &tracedWorkload{
		tr:    tr,
		addBS: bus.MeasureTrace(tr, bus.Gray).AddBS(),
	}
	e.traces[key] = w
	return w, nil
}

// Evaluate scores one (T, L, S, B) configuration, classifying its
// misses when the explorer's Options.Classify is set.
func (e *Explorer) Evaluate(cfg cachesim.Config, tiling int) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	w, err := e.workload(tiling, cfg)
	if err != nil {
		return Metrics{}, err
	}
	cfg.Classify = e.opts.Classify
	st, err := cachesim.RunTrace(cfg, w.tr)
	if err != nil {
		return Metrics{}, err
	}
	m, err := scoreStats(cfg, tiling, e.opts.Energy, st, w.addBS)
	if err != nil {
		return Metrics{}, err
	}
	m.Optimized = e.opts.OptimizeLayout
	return m, nil
}

// scoreStats turns simulator statistics into Metrics under the §2.2 cycle
// model and the §2.3 energy model.
func scoreStats(cfg cachesim.Config, tiling int, p energy.Params, st cachesim.Stats, addBS float64) (Metrics, error) {
	cyc, err := cycles.Count(cycles.Params{
		Assoc:      cfg.Assoc,
		LineBytes:  cfg.LineBytes,
		TilingSize: tiling,
	}, st.Hits, st.Misses)
	if err != nil {
		return Metrics{}, err
	}
	ba, err := energy.PerAccess(p, cfg, addBS)
	if err != nil {
		return Metrics{}, err
	}
	hits, misses := float64(st.Hits), float64(st.Misses)
	breakdown := EnergyBreakdown{
		DecNJ:  (hits + misses) * ba.EDec,
		CellNJ: (hits + misses) * ba.ECell,
		IONJ:   misses * ba.EIO,
		MainNJ: misses * ba.EMain,
	}
	if p.LeakNJPerCycleKB > 0 {
		breakdown.LeakNJ = p.LeakNJPerCycleKB * float64(cfg.SizeBytes) / 1024 * cyc
	}
	if p.CountWriteTraffic {
		breakdown.WriteNJ = float64(st.WriteBacks+st.WriteThroughs) * (ba.EIO + ba.EMain)
	}
	return Metrics{
		CacheSize:      cfg.SizeBytes,
		LineSize:       cfg.LineBytes,
		Assoc:          cfg.Assoc,
		Tiling:         tiling,
		Accesses:       st.Accesses,
		Hits:           st.Hits,
		Misses:         st.Misses,
		MissRate:       st.MissRate(),
		ConflictMisses: st.ConflictMisses,
		Cycles:         cyc,
		EnergyNJ:       breakdown.Total(),
		Energy:         breakdown,
		AddBS:          addBS,
	}, nil
}

// EvaluateTrace scores an arbitrary pre-generated trace under one cache
// configuration, with 3C classification when cfg.Classify is set. It is the
// building block for compositions the sweep does not cover (e.g. warm
// multi-kernel pipelines). It re-measures the trace's bus activity on
// every call; when scoring one trace under many configurations, measure
// once with TraceAddBS and use EvaluateTraceMeasured instead.
func EvaluateTrace(tr *trace.Trace, cfg cachesim.Config, tiling int, p energy.Params) (Metrics, error) {
	return EvaluateTraceMeasured(tr, TraceAddBS(tr), cfg, tiling, p)
}

// TraceAddBS measures the Gray-coded address-bus switching per access of
// a trace — the Add_bs input of the §2.3 energy model and of
// EvaluateTraceMeasured. The value depends only on the trace, so callers
// scoring one trace under many configurations should measure once and
// reuse it.
func TraceAddBS(tr *trace.Trace) float64 {
	return bus.MeasureTrace(tr, bus.Gray).AddBS()
}

// EvaluateTraceMeasured is EvaluateTrace with the trace's measured
// AddBS supplied by the caller (see TraceAddBS), so compositions that
// score one trace under many configurations — WarmTrace pipelines, the
// hierarchy sweeps — don't re-scan the trace per configuration.
func EvaluateTraceMeasured(tr *trace.Trace, addBS float64, cfg cachesim.Config, tiling int, p energy.Params) (Metrics, error) {
	st, err := cachesim.RunTrace(cfg, tr)
	if err != nil {
		return Metrics{}, err
	}
	return scoreStats(cfg, tiling, p, st, addBS)
}

// Space enumerates the legal (T, L, S, B) combinations of the options in
// deterministic order.
func (o Options) Space() []ConfigPoint {
	var out []ConfigPoint
	sizes := append([]int(nil), o.CacheSizes...)
	lines := append([]int(nil), o.LineSizes...)
	assocs := append([]int(nil), o.Assocs...)
	tilings := append([]int(nil), o.Tilings...)
	sort.Ints(sizes)
	sort.Ints(lines)
	sort.Ints(assocs)
	sort.Ints(tilings)
	for _, t := range sizes {
		if o.MaxOnChip > 0 && t > o.MaxOnChip {
			continue
		}
		for _, l := range lines {
			if l >= t { // the paper requires L < T
				continue
			}
			for _, s := range assocs {
				if s > t/l {
					continue
				}
				for _, b := range tilings {
					if b > t/l {
						continue
					}
					out = append(out, ConfigPoint{CacheSize: t, LineSize: l, Assoc: s, Tiling: b})
				}
			}
		}
	}
	return out
}

// ConfigPoint is one point of the exploration space. The JSON tags are
// stable wire API, matching the identifying fields of Metrics.
type ConfigPoint struct {
	CacheSize int `json:"cache_size"`
	LineSize  int `json:"line_size"`
	Assoc     int `json:"assoc"`
	Tiling    int `json:"tiling"`
}

// Config returns the cache configuration of the point.
func (p ConfigPoint) Config() cachesim.Config {
	return cachesim.DefaultConfig(p.CacheSize, p.LineSize, p.Assoc)
}

// Explore runs the full MemExplore sweep for a kernel and returns one
// Metrics per legal configuration, in deterministic order. It is
// ExploreContext with a background context.
func Explore(n *loopir.Nest, opts Options) ([]Metrics, error) {
	return ExploreContext(context.Background(), n, opts)
}

// ExploreContext is Explore with cancellation: the context is checked
// between workload groups and every few thousand references inside a
// running pass, so a canceled or expired context stops the sweep within
// one check interval. The returned error then wraps both ErrCanceled and
// ctx.Err(). Options.Workers sets how many goroutines run the sweep;
// results are identical at any value.
//
// Every sweep runs on the workload-grouped engine (see batch.go): each
// distinct trace is generated and traversed once for all cache
// configurations that share it, and within a pass the default-policy
// configurations further collapse into inclusion groups — one per-set
// LRU stack per (line, sets) geometry yields every associativity at once
// (see internal/cachesim's inclusion engine). A classified sweep
// (Options.Classify) gives every configuration a classifying cache of
// its own in the same pass.
func ExploreContext(ctx context.Context, n *loopir.Nest, opts Options) ([]Metrics, error) {
	if err := opts.rejectSampling(); err != nil {
		return nil, err
	}
	return exploreBatched(ctx, n, opts, opts.effectiveWorkers())
}

// ExplorePerPointContext is the reference engine: one full
// trace-simulation pass per configuration point, exactly the paper's §1
// loop nest, on one goroutine whatever Options.Workers says. It is the
// independent oracle the batched engine is equivalence-tested and
// benchmarked against. Results are identical to ExploreContext (same
// points, same deterministic order).
func ExplorePerPointContext(ctx context.Context, n *loopir.Nest, opts Options) ([]Metrics, error) {
	if err := opts.rejectSampling(); err != nil {
		return nil, err
	}
	e, err := NewExplorer(n, opts)
	if err != nil {
		return nil, err
	}
	points := opts.Space()
	progress := progressFrom(ctx)
	out := make([]Metrics, 0, len(points))
	for _, p := range points {
		if err := ctx.Err(); err != nil {
			return nil, canceled(err)
		}
		m, err := e.Evaluate(opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc), p.Tiling)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s/%v: %w", n.Name, p, err)
		}
		out = append(out, m)
		if progress != nil {
			progress(ProgressEvent{Points: 1, PassUnits: 1})
		}
	}
	return out, nil
}
