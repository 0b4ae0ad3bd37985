package core

// This file implements the workload-grouped, single-pass batched sweep
// engine.
//
// A sweep point's reference trace depends only on its workload — the
// tiling, plus (for optimized layouts) the (L, sets) geometry the §4.1
// assignment targets — never on the cache's associativity or, for
// sequential layouts, on the cache geometry at all. The engine therefore
// partitions Options.Space() by traceKey, generates each workload's
// trace exactly once, measures its Gray-code address-bus switching in
// the same traversal, and drives every cache configuration of the group
// through one cachesim.Sweep pass (the Dinero IV single-pass trick).
// Sequential-layout sweeps collapse the whole sizes×lines×assocs product
// into one pass per tiling; optimized-layout sweeps collapse the
// associativity dimension. Results are bit-identical to the per-point
// reference engine (ExplorePerPointContext), in the same deterministic
// Space() order.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// workloadKey computes the trace identity of a sweep point, mirroring
// Explorer.workload: sequential layouts share one trace per tiling;
// optimized layouts additionally key on the (L, T/L) geometry the §4.1
// assignment targets (associativity only merges sets, see Explorer).
func workloadKey(opts Options, p ConfigPoint) traceKey {
	key := traceKey{tiling: p.Tiling, optimized: opts.OptimizeLayout}
	if opts.OptimizeLayout {
		key.lineBytes = p.LineSize
		key.sets = p.CacheSize / p.LineSize
	}
	return key
}

// workloadGroup is one workload and the indices (into the Space() slice)
// of the sweep points that share its trace.
type workloadGroup struct {
	key     traceKey
	indices []int
}

// groupWorkloads partitions the sweep points by workload, preserving
// first-appearance order (and, within a group, Space() order).
func groupWorkloads(opts Options, points []ConfigPoint) []workloadGroup {
	order := make(map[traceKey]int)
	var groups []workloadGroup
	for i, p := range points {
		key := workloadKey(opts, p)
		gi, ok := order[key]
		if !ok {
			gi = len(groups)
			order[key] = gi
			groups = append(groups, workloadGroup{key: key})
		}
		groups[gi].indices = append(groups[gi].indices, i)
	}
	return groups
}

// Workloads reports how many distinct trace-generation workloads the
// options' space contains — the number of trace passes the batched
// engine performs for a non-classified sweep (the per-point reference
// engine performs one pass per point instead).
func (o Options) Workloads() int {
	seen := make(map[traceKey]struct{})
	for _, p := range o.Space() {
		seen[workloadKey(o, p)] = struct{}{}
	}
	return len(seen)
}

// workloadCache generates the workload traces of one sweep. It is safe
// for concurrent use: the mutex guards the maps, and the per-entry once
// lets distinct workloads generate concurrently while a shared tiled
// nest or sequential trace is still built only once. An optimized-layout
// workload starts from its tiling's sequential trace, which the §4.1
// guard compares the plan against; layout.OptimizeTrace hands back the
// trace of the layout it chose, so no workload is generated twice. Each
// group's trace is released as soon as the group has run.
type workloadCache struct {
	nest *loopir.Nest

	mu     sync.Mutex
	tiled  map[int]*onceNest
	traces map[traceKey]*onceTrace
}

type onceNest struct {
	once sync.Once
	n    *loopir.Nest
	err  error
}

type onceTrace struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

func newWorkloadCache(n *loopir.Nest) *workloadCache {
	return &workloadCache{
		nest:   n,
		tiled:  make(map[int]*onceNest),
		traces: make(map[traceKey]*onceTrace),
	}
}

func (c *workloadCache) tiledNest(b int) (*loopir.Nest, error) {
	c.mu.Lock()
	e, ok := c.tiled[b]
	if !ok {
		e = &onceNest{}
		c.tiled[b] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.n, e.err = loopir.TileAll(c.nest, b) })
	return e.n, e.err
}

func (c *workloadCache) trace(key traceKey) (*trace.Trace, error) {
	c.mu.Lock()
	e, ok := c.traces[key]
	if !ok {
		e = &onceTrace{}
		c.traces[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.tr, e.err = c.generate(key) })
	return e.tr, e.err
}

func (c *workloadCache) generate(key traceKey) (*trace.Trace, error) {
	n, err := c.tiledNest(key.tiling)
	if err != nil {
		return nil, err
	}
	if !key.optimized {
		return n.Generate(loopir.SequentialLayout(n, 0))
	}
	seq, err := c.trace(traceKey{tiling: key.tiling})
	if err != nil {
		return nil, err
	}
	_, tr, err := layout.OptimizeTrace(n, key.lineBytes, key.sets, seq)
	return tr, err
}

// release drops a group's trace once the group has run. Every group key
// belongs to exactly one group, so nothing reads it again. The
// sequential traces that optimized workloads start from are not group
// keys of an optimized sweep; they stay until the sweep ends.
func (c *workloadCache) release(key traceKey) {
	c.mu.Lock()
	delete(c.traces, key)
	c.mu.Unlock()
}

// groupConfigs builds the simulator configurations of one workload
// group's points, in group (= Space()) order.
func groupConfigs(opts Options, points []ConfigPoint, g workloadGroup) []cachesim.Config {
	cfgs := make([]cachesim.Config, len(g.indices))
	for i, pi := range g.indices {
		p := points[pi]
		cfgs[i] = opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc)
	}
	return cfgs
}

// runWorkloadGroup simulates every configuration of one workload group
// in a single pass over its trace, fusing the Gray-code bus measurement
// into the same traversal, and writes the scored Metrics into out at
// the group's point indices. workers > 1 splits the trace across that
// many goroutines (see runSweepTrace); results are bit-identical at any
// value.
func (c *workloadCache) runWorkloadGroup(ctx context.Context, opts Options, points []ConfigPoint, g workloadGroup, out []Metrics, workers int) error {
	tr, err := c.trace(g.key)
	if err != nil {
		return fmt.Errorf("core: generating trace for %s/B%d: %w", c.nest.Name, g.key.tiling, err)
	}
	cfgs := groupConfigs(opts, points, g)
	sweep, err := cachesim.NewSweep(cfgs)
	if err != nil {
		return fmt.Errorf("core: building sweep for %s/B%d: %w", c.nest.Name, g.key.tiling, err)
	}
	ctr := bus.NewSwitchCounter(bus.Gray)
	stats, err := runSweepTrace(ctx, sweep, tr, func(r trace.Ref) { ctr.Drive(r.Addr) }, workers)
	c.release(g.key)
	if err != nil {
		// The only error source for an in-memory trace is the context.
		return canceled(err)
	}
	addBS := ctr.PerDrive()
	for i, pi := range g.indices {
		m, err := scoreStats(cfgs[i], points[pi].Tiling, opts.Energy, stats[i], addBS)
		if err != nil {
			return fmt.Errorf("core: evaluating %s/%v: %w", c.nest.Name, points[pi], err)
		}
		m.Optimized = opts.OptimizeLayout
		out[pi] = m
	}
	if progress := progressFrom(ctx); progress != nil {
		progress(ProgressEvent{Points: int64(len(g.indices)), PassUnits: int64(sweep.PassUnits())})
	}
	sweep.Release()
	return nil
}

// exploreBatched is the workload-grouped engine behind ExploreContext
// for non-classified sweeps. With at least as many groups as workers,
// workers > 1 parallelizes across workload groups over a shared trace
// cache. With more workers than groups — the one-giant-group shape every
// external-trace-like sweep has — the groups run one after another and
// each splits its trace across every worker (runSweepTrace: time ranges
// for stack sweeps, the pass-unit fan-out for sweeps with fallback
// caches). The returned metrics are bit-identical to the per-point
// reference engine, in Space() order.
func exploreBatched(ctx context.Context, n *loopir.Nest, opts Options, workers int) ([]Metrics, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	points := opts.Space()
	groups := groupWorkloads(opts, points)
	out := make([]Metrics, len(points))
	cache := newWorkloadCache(n)

	if workers <= 1 || workers > len(groups) {
		for _, g := range groups {
			if err := ctx.Err(); err != nil {
				return nil, canceled(err)
			}
			if err := cache.runWorkloadGroup(ctx, opts, points, g, out, workers); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = canceled(err)
					return
				}
				if err := cache.runWorkloadGroup(ctx, opts, points, groups[i], out, 1); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := firstSweepError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// firstSweepError reduces per-worker errors, preferring a
// non-cancellation error if any worker hit one: it is the more specific
// diagnosis.
func firstSweepError(errs []error) error {
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isCanceled(err) {
			cancelErr = err
			continue
		}
		return err
	}
	return cancelErr
}
