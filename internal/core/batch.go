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
// associativity dimension, and every geometry whose §4.1 guard keeps the
// sequential layout joins its tiling's one pass over the sequential
// trace. Results are bit-identical to the per-point reference engine
// (ExplorePerPointContext), in the same deterministic Space() order.

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
// options' space contains — the number of traces a kernel sweep
// generates (the per-point reference engine makes one pass per point
// instead).
func (o Options) Workloads() int {
	seen := make(map[traceKey]struct{})
	for _, p := range o.Space() {
		seen[workloadKey(o, p)] = struct{}{}
	}
	return len(seen)
}

// workloadCache holds the per-tiling state of one sweep's workload
// groups: the tiling's layout.Sequential (the tiled nest compiled once,
// its trace under the sequential layout, generated once, and the §4.1
// guard's counts of it, one pass per line size), how many of the
// tiling's groups have yet to settle their trace, and the groups whose
// trace is the sequential one. An optimized-layout group takes its trace
// from layout.OptimizeTrace, which hands back the sequential trace
// itself when the guard keeps the sequential layout; every group of a
// sequential-layout sweep has that trace too. All groups of a tiling
// that share the sequential trace run in one sweep pass over it, as soon
// as the tiling's last group has settled. A padded plan's trace goes
// back to the guard's buffer pool once its group has run, and a tiling's
// state is dropped once its last group has. It is safe for concurrent
// use.
type workloadCache struct {
	nest *loopir.Nest

	mu      sync.Mutex
	tilings map[int]*tilingWork
}

// tilingWork is the shared state of one tiling's groups.
type tilingWork struct {
	once sync.Once
	seq  *layout.Sequential
	err  error

	geoms   []layout.Geometry // the guard geometries of the tiling's groups
	pending int               // groups whose trace has not settled yet
	onSeq   []workloadGroup   // settled groups whose trace is the sequential one
}

func newWorkloadCache(n *loopir.Nest, groups []workloadGroup) *workloadCache {
	c := &workloadCache{nest: n, tilings: make(map[int]*tilingWork)}
	for _, g := range groups {
		tw := c.tilings[g.key.tiling]
		if tw == nil {
			tw = &tilingWork{}
			c.tilings[g.key.tiling] = tw
		}
		tw.pending++
		if g.key.optimized {
			tw.geoms = append(tw.geoms, layout.Geometry{LineBytes: g.key.lineBytes, Sets: g.key.sets})
		}
	}
	return c
}

// sequential returns tiling b's sequential layout, tiling the nest on
// first use.
func (c *workloadCache) sequential(b int) (*layout.Sequential, error) {
	c.mu.Lock()
	tw := c.tilings[b]
	c.mu.Unlock()
	tw.once.Do(func() {
		n, err := loopir.TileAll(c.nest, b)
		if err != nil {
			tw.err = err
			return
		}
		tw.seq, tw.err = layout.NewSequential(n, tw.geoms)
	})
	return tw.seq, tw.err
}

// settle records that g's trace is known, and whether it is the
// sequential one. When g was its tiling's last group to settle, the
// tiling's state is dropped and the groups to sweep over the sequential
// trace are returned.
func (c *workloadCache) settle(g workloadGroup, onSeq bool) []workloadGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	tw := c.tilings[g.key.tiling]
	if onSeq {
		tw.onSeq = append(tw.onSeq, g)
	}
	if tw.pending--; tw.pending > 0 {
		return nil
	}
	delete(c.tilings, g.key.tiling)
	return tw.onSeq
}

// appendGroupConfigs appends the simulator configurations of one
// workload group's points to dst, in group (= Space()) order.
func appendGroupConfigs(dst []cachesim.Config, opts Options, points []ConfigPoint, g workloadGroup) []cachesim.Config {
	for _, pi := range g.indices {
		p := points[pi]
		dst = append(dst, opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc))
	}
	return dst
}

// runWorkloadGroup settles one workload group's trace and runs the
// group: on its own over a padded plan's trace, otherwise in its
// tiling's pass over the sequential trace, which this call runs when the
// group is the tiling's last to settle. workers > 1 splits each trace
// across that many goroutines (see pass.run); results are
// bit-identical at any value.
func (c *workloadCache) runWorkloadGroup(ctx context.Context, opts Options, points []ConfigPoint, g workloadGroup, out []Metrics, workers int) error {
	b := g.key.tiling
	seq, err := c.sequential(b)
	if err != nil {
		return fmt.Errorf("core: generating trace for %s/B%d: %w", c.nest.Name, b, err)
	}
	seqTr, err := seq.Trace()
	if err != nil {
		return fmt.Errorf("core: generating trace for %s/B%d: %w", c.nest.Name, b, err)
	}
	tr := seqTr
	if g.key.optimized {
		if _, tr, err = layout.OptimizeTrace(ctx, seq, g.key.lineBytes, g.key.sets); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return canceled(ctxErr)
			}
			return fmt.Errorf("core: generating trace for %s/B%d: %w", c.nest.Name, b, err)
		}
	}
	if tr != seqTr {
		// runSweep has joined every goroutine that read the plan's trace
		// by the time it returns, so its buffer can go back to the pool.
		err := c.runSweep(ctx, opts, points, []workloadGroup{g}, tr, out, workers)
		seq.Release(tr)
		if err != nil {
			return err
		}
	}
	if onSeq := c.settle(g, tr == seqTr); len(onSeq) > 0 {
		return c.runSweep(ctx, opts, points, onSeq, seqTr, out, workers)
	}
	return nil
}

// runSweep simulates every configuration of groups, which share tiling
// and trace, in a single pass over tr, fusing the Gray-code bus
// measurement into the same traversal, and writes the scored Metrics
// into out at the groups' point indices.
func (c *workloadCache) runSweep(ctx context.Context, opts Options, points []ConfigPoint, groups []workloadGroup, tr *trace.Trace, out []Metrics, workers int) error {
	b := groups[0].key.tiling
	n := 0
	for _, g := range groups {
		n += len(g.indices)
	}
	cfgs := make([]cachesim.Config, 0, n)
	indices := make([]int, 0, n)
	for _, g := range groups {
		cfgs = appendGroupConfigs(cfgs, opts, points, g)
		indices = append(indices, g.indices...)
	}
	sweep, err := cachesim.NewSweep(cfgs)
	if err != nil {
		return fmt.Errorf("core: building sweep for %s/B%d: %w", c.nest.Name, b, err)
	}
	defer sweep.Release()
	ctr := bus.NewSwitchCounter(bus.Gray)
	if err := (pass{sweep: sweep, ctr: ctr, workers: workers, mem: tr.Refs()}).run(ctx); err != nil {
		return err
	}
	stats, addBS := sweep.Stats(), ctr.PerDrive()
	for i, pi := range indices {
		m, err := scoreStats(cfgs[i], b, opts.Energy, stats[i], addBS)
		if err != nil {
			return fmt.Errorf("core: evaluating %s/%v: %w", c.nest.Name, points[pi], err)
		}
		m.Optimized = opts.OptimizeLayout
		out[pi] = m
	}
	if progress := progressFrom(ctx); progress != nil {
		// Report the pass units the plan counts for these groups, so
		// that a job's completed units reach its planned total. NewSweep
		// has accepted every configuration.
		units, start := 0, 0
		for _, g := range groups {
			gu, _ := cachesim.PassUnitsOf(cfgs[start : start+len(g.indices)])
			units += len(gu)
			start += len(g.indices)
		}
		progress(ProgressEvent{Points: int64(len(indices)), PassUnits: int64(units)})
	}
	return nil
}

// exploreBatched is the workload-grouped engine behind ExploreContext.
// With at least as many groups as workers,
// workers > 1 parallelizes across workload groups over a shared trace
// cache. With more workers than groups — the one-giant-group shape every
// external-trace-like sweep has — the groups run one after another and
// each splits its trace across every worker (pass.run: time ranges
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
	cache := newWorkloadCache(n, groups)

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
