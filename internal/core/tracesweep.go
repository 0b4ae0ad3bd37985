package core

// This file implements the external-trace sweep: the grouped engines of
// batch.go (the inclusion-property stack sweep with its fallback caches)
// driven not by a generated kernel trace but by an arbitrary application
// trace streamed through internal/extrace. The whole (T, L, S) space is
// evaluated in ONE sequential pass over the stream in constant memory —
// the trace is never materialized — with the Gray-code bus measurement
// fused into the same pass, exactly as the kernel engine fuses it into
// trace generation.

import (
	"context"
	"fmt"
	"io"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
)

// traceSpace restricts sweep options to what an external trace can vary.
// Tiling and the §4.1 layout are code/data transformations applied while
// generating a trace; an already-recorded trace has them baked in, so the
// sweep space is (T, L, S) with B pinned to 1 and layout optimization
// off. 3C classification is rejected: a classifying cache remembers every
// line it has seen, so memory would grow with the trace's footprint and
// break the single-pass constant-memory contract.
func traceSpace(opts Options) (Options, error) {
	if opts.Classify {
		return Options{}, invalidOptions("classify", "3C classification is not supported for external-trace sweeps")
	}
	opts.Tilings = []int{1}
	opts.OptimizeLayout = false
	// Canonicalize the sampling knobs the way Normalize does, so a rate
	// of exactly 1 takes the exact path.
	if opts.SampleRate == 1 {
		opts.SampleRate = 0
	}
	if opts.SampleRate == 0 {
		opts.SampleSeed = 0
	}
	if err := opts.Validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}

// ExploreTraceReader runs the MemExplore sweep over an external
// application trace streamed from r — textual din or mxt binary format,
// transparently gzip-decompressed (see internal/extrace) — and returns
// one Metrics per legal (T, L, S) configuration in deterministic Space()
// order, together with the ingest-time statistics accumulated during the
// same pass. ing bounds and shapes the ingestion (record limits,
// malformed-record policy).
//
// The trace is read exactly once, in fixed-size chunks: every cache
// configuration of the sweep and the Gray-code address-bus measurement
// consume each chunk before the next is read, so memory use is constant
// in the trace length and a multi-gigabyte trace sweeps in one pass. The
// context is checked at every chunk boundary; cancellation returns an
// error wrapping ErrCanceled. Malformed input surfaces as
// *extrace.ParseError (with line number and byte offset) unless
// ing.SkipMalformed is set, and a stream with no records fails with
// ErrEmptyTrace. The IngestStats snapshot is valid even when an error is
// returned — it reports whatever was ingested up to the failure.
func ExploreTraceReader(ctx context.Context, r io.Reader, opts Options, ing extrace.Options) ([]Metrics, extrace.IngestStats, error) {
	return exploreTraceSubset(ctx, r, opts, ing, nil)
}

// exploreTraceSubset is ExploreTraceReader restricted to a subset of the
// sweep's configuration points (nil means all of them): the engine it
// builds owns only the subset's pass units, but the sampling filter,
// the bus counter, and every rescaling decision are functions
// of (options, trace bytes) alone — identical for any subset — so the
// Metrics it returns are bit-for-bit the values the full sweep computes
// for those points. That property is what distributed shard execution
// (ExploreTraceShard) and its exact merge stand on. subset must be
// ascending point indices into opts.Space() after the trace restriction.
func exploreTraceSubset(ctx context.Context, r io.Reader, opts Options, ing extrace.Options, subset []int) ([]Metrics, extrace.IngestStats, error) {
	opts, err := traceSpace(opts)
	if err != nil {
		return nil, extrace.IngestStats{}, err
	}
	points := opts.Space()
	if len(points) == 0 {
		return nil, extrace.IngestStats{}, invalidOptions("cache_sizes", "the options admit no legal (T, L, S) configuration")
	}
	if subset != nil {
		sel := make([]ConfigPoint, len(subset))
		for i, pi := range subset {
			if pi < 0 || pi >= len(points) {
				return nil, extrace.IngestStats{}, fmt.Errorf("core: shard point index %d outside the %d-point space", pi, len(points))
			}
			sel[i] = points[pi]
		}
		points = sel
	}
	cfgs := cacheConfigs(opts, points)
	sweep, err := cachesim.NewSweep(cfgs)
	if err != nil {
		return nil, extrace.IngestStats{}, fmt.Errorf("core: building trace-sweep engine: %w", err)
	}
	defer sweep.Release() // every return path must recycle the pooled arrays

	// A transcode-sampled artifact (mxt v2 with sampling recorded in its
	// MXTI01 footer) already lost the dropped granules: re-sampling it
	// would compound two filters with no way to rescale, and a sweep
	// whose filter granule is coarser than the stored hash granule would
	// see internally inconsistent blocks. Both are refused. Seekable
	// sources are checked up front; non-seekable streams only reveal
	// their footer at end of stream and are re-checked after the run.
	validateStored := func(ix *extrace.TraceIndex) error {
		if ix == nil || !ix.Sampled {
			return nil
		}
		if opts.SampleRate > 0 {
			return invalidOptions("sample_rate", "the trace was already sampled at transcode time (rate %g, seed %d): re-sampling would compound the filters; sweep it as-is or re-transcode from the original source", ix.SampleRate, ix.SampleSeed)
		}
		if g := filterGranule(opts.LineSizes); g > ix.SampleGranule {
			return invalidOptions("line_sizes", "the trace was sampled at transcode time at %d-byte granules, but line sizes up to %d bytes need a %d-byte filter granule: the stored sample is not spatially consistent at that size", ix.SampleGranule, g, g)
		}
		return nil
	}
	storedIdx := extrace.ProbeIndex(r)
	if err := validateStored(storedIdx); err != nil {
		return nil, extrace.IngestStats{}, err
	}

	// Spatial sampling rides the pass's coordinator; exact sweeps leave
	// filter nil and are bit-identical to previous releases.
	var filter *traceFilter
	rd := extrace.NewReader(r, ing)
	defer rd.Close()
	if opts.SampleRate > 0 {
		filter = newTraceFilter(opts)
		// Index-guided chunk skipping: when the MXTI01 index proves no
		// record of a chunk survives the sample, the reader seeks past
		// the chunk without decoding it. The verdict reproduces the
		// decode-then-filter outcome exactly (see skipChunk), so Metrics
		// stay bit-identical to the full decode at any worker count.
		rd.SetChunkPolicy(filter.skipChunk)
	}
	ctr := bus.NewSwitchCounter(bus.Gray)
	err = pass{sweep: sweep, ctr: ctr, workers: opts.effectiveWorkers(), rd: rd, filter: filter}.run(ctx)
	if err != nil {
		return nil, rd.Stats(), err
	}
	st := rd.Stats()
	if st.Records == 0 {
		return nil, st, ErrEmptyTrace
	}
	if storedIdx == nil {
		// The stream path discovers the footer only at EOF.
		if err := validateStored(rd.Index()); err != nil {
			return nil, st, err
		}
		storedIdx = rd.Index()
	}

	// A transcode-sampled artifact rescales against the pre-sampling
	// source: the stored records ARE the sample, so the filter reduces
	// to a rescaling shell when no live filter ran.
	total, rate := st.Records, opts.SampleRate
	if storedIdx != nil && storedIdx.Sampled {
		total, rate = storedIdx.SourceRecords, storedIdx.SampleRate
		if filter == nil {
			filter = &traceFilter{simulated: st.Records}
		}
	}
	if filter != nil && filter.simulated == 0 {
		return nil, st, fmt.Errorf("%w (sampling at rate %g kept none of %d records)",
			ErrEmptyTrace, rate, total)
	}

	addBS := ctr.PerDrive()
	stats := sweep.Stats()
	out := make([]Metrics, len(points))
	for i, pt := range points {
		full := stats[i]
		var ci float64
		if filter != nil {
			full, ci = filter.rescale(full, total, rate)
		}
		m, err := scoreStats(cfgs[i], pt.Tiling, opts.Energy, full, addBS)
		if err != nil {
			return nil, st, fmt.Errorf("core: evaluating trace sweep %v: %w", pt, err)
		}
		if filter != nil {
			m.SampleRate = rate
			m.SampledRecords = filter.simulated
			m.MissRateCI = ci
		}
		out[i] = m
	}
	return out, st, nil
}

// ExploreTrace is ExploreTraceReader with a background context.
func ExploreTrace(r io.Reader, opts Options, ing extrace.Options) ([]Metrics, extrace.IngestStats, error) {
	return ExploreTraceReader(context.Background(), r, opts, ing)
}
