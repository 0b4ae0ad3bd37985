package search

// Batch evaluation with a content-keyed memo. Each generation's
// un-memoized genomes are decoded and handed to the evaluator in one
// core sweep call per (line size, tiling) group, with the cache-size and
// associativity candidate lists unioned across the group — the inclusion
// engine then amortizes its Mattson stack passes across every individual
// in the group, and every point of the (T, S) cross-product those passes
// produce lands in the memo, so revisited and adjacent genomes cost
// nothing in later generations. Grouping by the pass-defining dimensions
// keeps the absorbed closure honest: it never contains points whose
// simulation the requested ones didn't already pay for.

import (
	"context"
	"io"
	"sort"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/loopir"
)

// evaluator scores a batch of distinct configuration points sharing one
// (line size, tiling) pair. It must return metrics for at least the
// requested points and may return a superset (the union cross-product);
// the memo absorbs everything.
type evaluator interface {
	evaluate(ctx context.Context, points []core.ConfigPoint) ([]core.Metrics, error)
}

// unionOptions narrows the sweep options to the union of the batch's
// candidate values, so one engine call covers exactly what the
// generation needs plus the cross-product closure.
func unionOptions(base core.Options, points []core.ConfigPoint) core.Options {
	u := base
	u.CacheSizes = uniqueDim(points, func(p core.ConfigPoint) int { return p.CacheSize })
	u.LineSizes = uniqueDim(points, func(p core.ConfigPoint) int { return p.LineSize })
	u.Assocs = uniqueDim(points, func(p core.ConfigPoint) int { return p.Assoc })
	u.Tilings = uniqueDim(points, func(p core.ConfigPoint) int { return p.Tiling })
	return u
}

func uniqueDim(points []core.ConfigPoint, get func(core.ConfigPoint) int) []int {
	seen := make(map[int]bool, len(points))
	out := make([]int, 0, len(points))
	for _, p := range points {
		if v := get(p); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// kernelEvaluator batch-evaluates generated-kernel workloads through
// core.ExploreContext at the options' worker count. Results are
// bit-identical at any worker count, so Workers does not affect the
// archive.
type kernelEvaluator struct {
	nest *loopir.Nest
	opts core.Options
}

func (e *kernelEvaluator) evaluate(ctx context.Context, points []core.ConfigPoint) ([]core.Metrics, error) {
	// The inner sweep is silenced (nil progress): the run loop emits one
	// event per generation retirement instead, so job progress counts
	// evaluations and generations, not engine pass units.
	return core.ExploreContext(core.WithProgress(ctx, nil), e.nest, unionOptions(e.opts, points))
}

// traceEvaluator batch-evaluates a recorded trace by rewinding the
// seekable source and streaming it through core.ExploreTraceReader once
// per generation. The first pass's ingest profile is kept for the
// caller; later passes see the identical stream.
type traceEvaluator struct {
	src      io.ReadSeeker
	opts     core.Options
	ing      extrace.Options
	stats    extrace.IngestStats
	profiled bool
}

func (e *traceEvaluator) evaluate(ctx context.Context, points []core.ConfigPoint) ([]core.Metrics, error) {
	if _, err := e.src.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	ms, st, err := core.ExploreTraceReader(core.WithProgress(ctx, nil), e.src, unionOptions(e.opts, points), e.ing)
	if err != nil {
		return nil, err
	}
	if !e.profiled {
		e.stats, e.profiled = st, true
	}
	return ms, nil
}

// memo is the content-keyed evaluation store: every metrics value the
// evaluator ever returned, keyed by configuration point, plus the
// deterministic append-order list the final archive is built from (the
// map is never iterated).
type memo struct {
	byPoint map[core.ConfigPoint]core.Metrics
	order   []core.Metrics
}

func newMemo() *memo {
	return &memo{byPoint: map[core.ConfigPoint]core.Metrics{}}
}

func (m *memo) get(p core.ConfigPoint) (core.Metrics, bool) {
	mt, ok := m.byPoint[p]
	return mt, ok
}

// absorb records a sweep's results in their (deterministic) engine
// order, returning how many points were new.
func (m *memo) absorb(ms []core.Metrics) int {
	fresh := 0
	for _, mt := range ms {
		p := core.ConfigPoint{CacheSize: mt.CacheSize, LineSize: mt.LineSize, Assoc: mt.Assoc, Tiling: mt.Tiling}
		if _, ok := m.byPoint[p]; ok {
			continue
		}
		m.byPoint[p] = mt
		m.order = append(m.order, mt)
		fresh++
	}
	return fresh
}

func (m *memo) size() int { return len(m.byPoint) }
