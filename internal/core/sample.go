package core

// This file implements the stream-thinning stage of the external-trace
// sweep, applied on the coordinator before the chunk fan-out: SHARDS-style
// spatial sampling (Options.SampleRate). A seeded hash threshold over
// block addresses keeps a deterministic ~R fraction of the address space.
// Because the filter is spatial — every reference to a kept block is
// kept, every reference to a dropped block is dropped — each simulated
// cache sees an internally consistent reference stream, and the
// resulting hit/miss counts, rescaled, estimate the full-trace counts.
//
// The filter hashes at one shared granule — the larger of the sweep's
// maximum line size and the ingest statistics granule — so every cache
// configuration of the sweep sees the same spatial subset and results
// stay deterministic for any worker count.

import (
	"math"
	"math/bits"

	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// sampleConfidenceZ is the normal quantile behind the reported miss-rate
// confidence interval (95% two-sided).
const sampleConfidenceZ = 1.96

// mix64 is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// hash for the sampling threshold test. It is the one shared definition
// (extrace.Mix64): transcode-time sampling stores artifacts thinned by
// exactly this hash, so a sweep over a stored sample and a live sample
// at the same rate/seed/granule keep the same granules.
func mix64(x uint64) uint64 { return extrace.Mix64(x) }

// traceFilter thins the reference stream on the pass's coordinator
// goroutine. It is not safe for concurrent use. A sweep over a
// transcode-sampled artifact runs no live filter and uses a bare
// traceFilter as its rescaling shell.
type traceFilter struct {
	gshift    uint   // log2 of the filter granule in bytes
	threshold uint64 // keep a granule when mix64(g^seed) < threshold
	seed      uint64

	simulated int64 // records that survived the filter
}

// filterGranule returns the shared spatial granule for a sweep: the
// largest candidate line size, floored at the ingest statistics granule.
func filterGranule(lineSizes []int) int {
	g := extrace.LineGranule
	for _, l := range lineSizes {
		if l > g {
			g = l
		}
	}
	return g
}

// newTraceFilter builds the sampling filter for normalized, validated
// options with SampleRate > 0.
func newTraceFilter(opts Options) *traceFilter {
	return &traceFilter{
		gshift: uint(bits.TrailingZeros(uint(filterGranule(opts.LineSizes)))),
		seed:   opts.SampleSeed,
		// threshold/2^64 ≈ SampleRate; a rate so close to 1 that the
		// product saturates keeps everything.
		threshold: extrace.SampleThreshold(opts.SampleRate),
	}
}

// keep reports whether the sample holds filter granule g.
func (f *traceFilter) keep(g uint64) bool { return mix64(g^f.seed) < f.threshold }

// skipChunk is the extrace.ChunkPolicy of this filter: from an index
// entry's exact granule summary alone, it reports whether no record of
// the chunk survives sampling. The summary granule (extrace.IndexGranule)
// is at most the filter granule, so each summary granule right-shifts
// onto the granule the per-record path hashes, and the verdict reproduces
// the decode-then-filter outcome exactly: a chunk is skipped only when
// every granule fails the hash, and an overflowed summary is always
// decoded. It runs inside the reader's Read and reads only filter state
// that is immutable once the stream starts.
func (f *traceFilter) skipChunk(e *extrace.ChunkIndexEntry) bool {
	gs := e.Granules
	if len(gs) == 0 {
		return false
	}
	shift := f.gshift - uint(bits.TrailingZeros(uint(extrace.IndexGranule)))
	prev := ^uint64(0)
	for _, g64 := range gs {
		sg := g64 >> shift
		if sg == prev {
			continue // gs is ascending, so equal sweep granules are adjacent
		}
		prev = sg
		if f.keep(sg) {
			return false
		}
	}
	return true
}

// apply compacts block in place to the records inside the spatial
// sample. The backing array is the pass's read buffer, which the
// coordinator owns between reads.
func (f *traceFilter) apply(block []trace.Ref) []trace.Ref {
	w := 0
	for _, r := range block {
		if f.keep(r.Addr >> f.gshift) {
			block[w] = r
			w++
		}
	}
	f.simulated += int64(w)
	return block[:w]
}

// rescale scales sim so its access count estimates the full trace of
// total records. The second result is the half-width of the 95%
// binomial confidence interval on the miss rate due to sampling (zero
// when rate is 0).
func (f *traceFilter) rescale(sim cachesim.Stats, total int64, rate float64) (cachesim.Stats, float64) {
	var ci float64
	if rate > 0 && sim.Accesses > 0 {
		p := float64(sim.Misses) / float64(sim.Accesses)
		ci = sampleConfidenceZ * math.Sqrt(p*(1-p)/float64(sim.Accesses))
	}
	if f.simulated > 0 && f.simulated != total {
		sim = sim.Scaled(float64(total) / float64(f.simulated))
	}
	return sim, ci
}
