// Package search implements a budgeted, reproducible NSGA-II
// multi-objective search over the MemExplore configuration space — the
// layer that takes over when hierarchy, technology, and tiling multiply
// the (T, L, S, B) space past what exhaustive sweeps can enumerate
// (Díaz Álvarez et al., arXiv 2302.11236; grammatical-evolution cache
// genomes, arXiv 2303.03338).
//
// Configurations are genomes — integer gene vectors indexing the sweep
// options' candidate lists, with a deterministic validity repair (see
// genome.go). Each generation's population is batch-evaluated through
// one core sweep call per (line size, tiling) group, unioning cache
// sizes and associativities within the group, so the inclusion engine
// amortizes Mattson stack passes across individuals, and a content-keyed
// memo makes revisited genomes free. Non-dominated
// sorting and crowding distance (nsga.go) drive selection; the final
// archive is the Pareto frontier over every point ever evaluated.
//
// Reproducibility is load-bearing: Options.Seed feeds a splitmix64
// generator, every tie anywhere breaks by index, and the evaluated-
// points list is kept in deterministic append order — so identical
// (workload, options, search options, budget) inputs yield bit-identical
// archives at any worker count. The one documented exception is
// Budget.WallClock, which stops the run by machine speed.
package search

import (
	"context"
	"fmt"
	"io"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/loopir"
)

// InvalidError reports invalid search parameters with the offending wire
// field named, mirroring core.ErrInvalidOptions so the service maps it
// onto the uniform error envelope. Retrieve it with errors.As.
type InvalidError struct {
	Field  string
	Reason string
}

func (e *InvalidError) Error() string {
	return fmt.Sprintf("search: invalid %s: %s", e.Field, e.Reason)
}

func invalid(field, format string, args ...any) *InvalidError {
	return &InvalidError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Options parameterizes the evolutionary operators. The zero value is
// usable: Normalize fills every unset field with its default, and seed 0
// is a valid (and the default) seed.
type Options struct {
	// Seed drives the splitmix64 generator behind every stochastic
	// choice. Identical seeds — with identical workload, sweep options,
	// and budget — give bit-identical archives at any worker count.
	Seed uint64 `json:"seed"`
	// PopSize is the population size (default 24, minimum 2).
	PopSize int `json:"pop_size,omitempty"`
	// CrossoverRate is the per-pair uniform-crossover probability
	// (default 0.9).
	CrossoverRate float64 `json:"crossover_rate,omitempty"`
	// MutationRate is the per-gene mutation probability (default 0.25).
	MutationRate float64 `json:"mutation_rate,omitempty"`
}

// DefaultOptions returns the default operator parameters.
func DefaultOptions() Options {
	return Options{PopSize: 24, CrossoverRate: 0.9, MutationRate: 0.25}
}

// Normalize fills unset (zero) fields from DefaultOptions. To all but
// disable an operator, set a tiny positive rate.
func (o Options) Normalize() Options {
	d := DefaultOptions()
	if o.PopSize == 0 {
		o.PopSize = d.PopSize
	}
	if o.CrossoverRate == 0 {
		o.CrossoverRate = d.CrossoverRate
	}
	if o.MutationRate == 0 {
		o.MutationRate = d.MutationRate
	}
	return o
}

// Validate checks the (normalized) options.
func (o Options) Validate() error {
	if o.PopSize < 2 || o.PopSize > 4096 {
		return invalid("search.pop_size", "population size %d must be in [2, 4096]", o.PopSize)
	}
	if !(o.CrossoverRate >= 0 && o.CrossoverRate <= 1) {
		return invalid("search.crossover_rate", "crossover rate %g must be in [0, 1]", o.CrossoverRate)
	}
	if !(o.MutationRate >= 0 && o.MutationRate <= 1) {
		return invalid("search.mutation_rate", "mutation rate %g must be in [0, 1]", o.MutationRate)
	}
	return nil
}

// Budget bounds a search run; at least one bound must be set. Bounds
// are checked at generation boundaries, so MaxEvaluations may overshoot
// by up to one generation's batch — the overshoot is reported honestly
// in Result.Evaluations, and the property tests compare against random
// sampling at that actual count.
type Budget struct {
	// MaxEvaluations stops the run once this many distinct configuration
	// points have been simulated (0 = unbounded).
	MaxEvaluations int `json:"max_evaluations,omitempty"`
	// MaxGenerations stops the run after this many offspring generations
	// (0 = unbounded). The initial population is generation 0 and always
	// evaluates.
	MaxGenerations int `json:"max_generations,omitempty"`
	// WallClock stops the run once it has run this long (0 = unbounded).
	// A wall-clock bound trades away reproducibility: where the run
	// stops depends on machine speed, so bit-identical archives are
	// guaranteed only for runs bounded by evaluations/generations alone.
	WallClock time.Duration `json:"-"`
}

// Validate checks that the budget actually bounds the run.
func (b Budget) Validate() error {
	if b.MaxEvaluations < 0 || b.MaxGenerations < 0 || b.WallClock < 0 {
		return invalid("budget", "budget bounds must be non-negative")
	}
	if b.MaxEvaluations == 0 && b.MaxGenerations == 0 && b.WallClock == 0 {
		return invalid("budget", "set at least one of max_evaluations, max_generations, wall_clock_ms")
	}
	return nil
}

// Stop reasons reported in Result.Stopped.
const (
	StopMaxEvaluations = "max_evaluations"
	StopMaxGenerations = "max_generations"
	StopWallClock      = "wall_clock"
	StopSpaceExhausted = "space_exhausted"
)

// Result is a finished search run. The JSON tags are the wire form
// embedded in the service's /v1/search response.
type Result struct {
	// Archive is the Pareto frontier over every evaluated point, in
	// increasing-cycles order (core.ParetoFrontier).
	Archive []core.Metrics `json:"archive"`
	// Evaluations counts the distinct configuration points simulated —
	// including cross-product closure points the batched engine threw in
	// for free.
	Evaluations int `json:"evaluations"`
	// MemoHits counts population slots answered by the memo without
	// touching an engine.
	MemoHits int `json:"memo_hits"`
	// Generations is the number of offspring generations retired.
	Generations int `json:"generations"`
	// SpacePoints is the size of the full configuration space — what an
	// exhaustive sweep would have evaluated.
	SpacePoints int `json:"space_points"`
	// Stopped names the exhausted budget dimension (the Stop* constants).
	Stopped string `json:"stopped"`
}

// Kernel runs the search for a generated-kernel workload. opts.Workers
// is the inner sweeps' worker count (0 = GOMAXPROCS); the archive is
// bit-identical at any value.
func Kernel(ctx context.Context, n *loopir.Nest, opts core.Options, sopts Options, budget Budget) (Result, error) {
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := n.Validate(); err != nil {
		return Result{}, err
	}
	space, err := NewSpace(opts)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, space, &kernelEvaluator{nest: n, opts: opts}, sopts, budget)
}

// Trace runs the search over a recorded trace. The source must be
// seekable: each generation rewinds it and streams it once through the
// trace sweep. Tiling and layout optimization are generation-time
// transforms that do not apply to recorded traces, so the tiling
// dimension pins to 1 — the genome degenerates to (T, L, S).
func Trace(ctx context.Context, src io.ReadSeeker, opts core.Options, ing extrace.Options, sopts Options, budget Budget) (Result, extrace.IngestStats, error) {
	opts = opts.Normalize()
	opts.Tilings = []int{1}
	opts.OptimizeLayout = false
	if err := opts.Validate(); err != nil {
		return Result{}, extrace.IngestStats{}, err
	}
	space, err := NewSpace(opts)
	if err != nil {
		return Result{}, extrace.IngestStats{}, err
	}
	ev := &traceEvaluator{src: src, opts: opts, ing: ing}
	res, err := run(ctx, space, ev, sopts, budget)
	return res, ev.stats, err
}

// run is the NSGA-II loop shared by Kernel and Trace.
func run(ctx context.Context, space *Space, ev evaluator, sopts Options, budget Budget) (Result, error) {
	sopts = sopts.Normalize()
	if err := sopts.Validate(); err != nil {
		return Result{}, err
	}
	if err := budget.Validate(); err != nil {
		return Result{}, err
	}
	var deadline time.Time
	if budget.WallClock > 0 {
		deadline = time.Now().Add(budget.WallClock)
	}
	r := newRNG(sopts.Seed)
	mem := newMemo()
	progress := core.ProgressFromContext(ctx)
	res := Result{SpacePoints: space.Points()}

	// evalPop scores a population slice through the memo. Un-memoized
	// points are batched by (line size, tiling) — the dimensions that
	// define an engine pass — so each evaluator call amortizes its Mattson
	// stack passes across every individual in the group, and the absorbed
	// (T, S) cross-product closure contains only points those same passes
	// produced anyway. One progress event per call = one event per
	// generation retirement.
	evalPop := func(inds []individual) error {
		var order [][2]int
		groups := map[[2]int][]core.ConfigPoint{}
		seen := map[core.ConfigPoint]bool{}
		for _, ind := range inds {
			p := space.Decode(ind.genome)
			if _, ok := mem.get(p); ok {
				res.MemoHits++
				continue
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			k := [2]int{p.LineSize, p.Tiling}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], p)
		}
		fresh := 0
		for _, k := range order {
			ms, err := ev.evaluate(ctx, groups[k])
			if err != nil {
				return err
			}
			fresh += mem.absorb(ms)
		}
		for i := range inds {
			m, ok := mem.get(space.Decode(inds[i].genome))
			if !ok {
				return fmt.Errorf("search: engine returned no metrics for %+v", space.Decode(inds[i].genome))
			}
			inds[i].metrics = m
		}
		res.Evaluations = mem.size()
		if progress != nil {
			progress(core.ProgressEvent{Points: int64(fresh), PassUnits: 1})
		}
		return nil
	}

	// Generation 0: a uniformly drawn (repaired) population.
	pop := make([]individual, sopts.PopSize)
	for i := range pop {
		pop[i] = individual{genome: space.randomGenome(r)}
	}
	if err := evalPop(pop); err != nil {
		return Result{}, err
	}

	for {
		switch {
		case budget.MaxEvaluations > 0 && res.Evaluations >= budget.MaxEvaluations:
			res.Stopped = StopMaxEvaluations
		case budget.MaxGenerations > 0 && res.Generations >= budget.MaxGenerations:
			res.Stopped = StopMaxGenerations
		case budget.WallClock > 0 && !time.Now().Before(deadline):
			res.Stopped = StopWallClock
		case res.Evaluations >= space.Points():
			res.Stopped = StopSpaceExhausted
		}
		if res.Stopped != "" {
			break
		}
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("%w: %w", core.ErrCanceled, err)
		}
		sortFronts(pop)
		offspring := make([]individual, 0, sopts.PopSize)
		for len(offspring) < sopts.PopSize {
			a := pop[tournament(r, pop)].genome
			b := pop[tournament(r, pop)].genome
			if r.float64() < sopts.CrossoverRate {
				a, b = crossover(r, a, b)
			}
			offspring = append(offspring, individual{genome: space.Repair(space.mutate(r, a, sopts.MutationRate))})
			if len(offspring) < sopts.PopSize {
				offspring = append(offspring, individual{genome: space.Repair(space.mutate(r, b, sopts.MutationRate))})
			}
		}
		if err := evalPop(offspring); err != nil {
			return Result{}, err
		}
		pop = environmental(append(pop, offspring...), sopts.PopSize)
		res.Generations++
	}
	res.Archive = core.ParetoFrontier(mem.order)
	return res, nil
}
