package core

import (
	"context"
	"fmt"
	"sync"

	"memexplore/internal/loopir"
)

// exploreClassified runs a classified sweep (Options.Classify) on the
// per-point path with its points split across workers, each owning a
// private Explorer — a small, bounded trace duplication that buys linear
// scaling of the classification work. One worker, or too few points to
// share, runs ExplorePerPointContext. Every worker checks the context
// between points. Results are identical at any worker count.
func exploreClassified(ctx context.Context, n *loopir.Nest, opts Options, workers int) ([]Metrics, error) {
	points := opts.Space()
	if workers == 1 || len(points) < 2*workers {
		return ExplorePerPointContext(ctx, n, opts)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}

	out := make([]Metrics, len(points))
	errs := make([]error, workers)
	progress := progressFrom(ctx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e, err := NewExplorer(n, opts)
			if err != nil {
				errs[w] = err
				return
			}
			// Contiguous blocks maximize per-worker trace-cache reuse:
			// adjacent sweep points share tiling and layout.
			lo := w * len(points) / workers
			hi := (w + 1) * len(points) / workers
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[w] = canceled(err)
					return
				}
				p := points[i]
				m, err := e.Evaluate(opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc), p.Tiling)
				if err != nil {
					errs[w] = fmt.Errorf("core: evaluating %s/%v: %w", n.Name, p, err)
					return
				}
				out[i] = m
				if progress != nil {
					progress(ProgressEvent{Points: 1, PassUnits: 1})
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
