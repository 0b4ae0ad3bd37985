package core

import (
	"fmt"

	"memexplore/internal/cachesim"
)

// SweepPlan describes how a sweep's points partition into simulation pass
// units before any trace is generated: how many distinct workload traces
// will be walked, and how the configurations of each workload split into
// inclusion groups (one per-set LRU stack level covering every
// associativity of a (line, sets) geometry) versus per-configuration
// fallbacks. The service and CLI surface it as the "configs per
// pass" amplification figure.
type SweepPlan struct {
	// Points is the number of sweep points (len(Space())).
	Points int
	// Workloads is the number of distinct trace-generation workloads —
	// the number of trace passes.
	Workloads int
	// InclusionGroups is the number of (workload, line, sets) groups
	// simulated by one shared LRU stack level each.
	InclusionGroups int
	// InclusionConfigs is the number of points covered by those groups.
	InclusionConfigs int
	// FallbackConfigs is the number of points simulated individually
	// (policies the stack model cannot represent, or classified sweeps).
	FallbackConfigs int
	// Shards, when the plan is for a chunked trace sweep (TraceSweepPlan)
	// of fallback configurations at more than one worker, is the pass-unit
	// count of each simulation shard the pass-unit fan-out will run — the
	// cost-balanced partition of PassUnits() across workers. Nil
	// otherwise: stack sweeps split the stream in time ranges instead,
	// and kernel-sweep plans report no shards.
	Shards []int
}

// PassUnits is the number of independent simulation units a trace pass
// drives: one per inclusion group plus one per fallback configuration.
func (p SweepPlan) PassUnits() int { return p.InclusionGroups + p.FallbackConfigs }

// ConfigsPerPass is the amplification of the plan: sweep points per
// simulation pass unit (1.0 means no sharing).
func (p SweepPlan) ConfigsPerPass() float64 {
	u := p.PassUnits()
	if u == 0 {
		return 0
	}
	return float64(p.Points) / float64(u)
}

// Plan computes the sweep's pass partition without running it, mirroring
// the grouping the engines perform: points group by workload (one trace
// pass each), and within a workload every (line, sets) geometry of the
// configurations cachesim.InclusionEligible admits forms one inclusion
// group; every other configuration falls back to its own simulator.
func (o Options) Plan() SweepPlan {
	points := o.Space()
	plan := SweepPlan{Points: len(points)}
	if o.Classify {
		// The per-point reference engine generates (or re-reads) the
		// workload trace once per point.
		plan.Workloads = len(points)
		plan.FallbackConfigs = len(points)
		return plan
	}
	groups := groupWorkloads(o, points)
	plan.Workloads = len(groups)
	for _, g := range groups {
		levels, inclusion, fallback := sweepUnits(appendGroupConfigs(nil, o, points, g))
		plan.InclusionGroups += levels
		plan.InclusionConfigs += inclusion
		plan.FallbackConfigs += fallback
	}
	return plan
}

// sweepUnits counts how cachesim.NewSweep splits cfgs into pass units:
// inclusion configurations, those cachesim.InclusionEligible admits,
// share one stack level per (line, sets) geometry, and each of the
// fallback others runs on a cache of its own.
func sweepUnits(cfgs []cachesim.Config) (levels, inclusion, fallback int) {
	type geom struct{ line, sets int }
	seen := make(map[geom]bool)
	for _, cfg := range cfgs {
		if !cachesim.InclusionEligible(cfg) {
			fallback++
			continue
		}
		seen[geom{cfg.LineBytes, cfg.NumSets()}] = true
		inclusion++
	}
	return len(seen), inclusion, fallback
}

// TraceSweepPlan is Plan for an external-trace sweep: the options are
// first restricted to what a recorded trace can vary (see
// ExploreTraceReader). The plan always has exactly one workload — the
// stream is read once.
func TraceSweepPlan(opts Options) (SweepPlan, error) {
	opts, err := traceSpace(opts)
	if err != nil {
		return SweepPlan{}, err
	}
	plan := opts.Plan()
	plan.Workloads = 1
	if plan.InclusionGroups > 0 || opts.effectiveWorkers() < 2 {
		return plan, nil
	}
	// Report the shard partition the pass-unit fan-out will use. Every
	// configuration of a sweep without stack levels falls back, so each
	// pass unit is one configuration.
	parts, err := cachesim.ShardConfigs(cacheConfigs(opts, opts.Space()), opts.effectiveWorkers())
	if err != nil {
		return SweepPlan{}, fmt.Errorf("core: planning trace-sweep shards: %w", err)
	}
	plan.Shards = make([]int, len(parts))
	for i, part := range parts {
		plan.Shards[i] = len(part)
	}
	return plan, nil
}
