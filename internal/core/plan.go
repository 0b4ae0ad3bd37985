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

// Plan computes the sweep's pass partition without running it: points
// group by workload (one trace pass each), and each workload's
// configurations form the pass units cachesim.PassUnitsOf lists — one
// inclusion group per (line, sets) geometry of the configurations
// cachesim.InclusionEligible admits, and a fallback simulator for every
// other configuration, classified ones included. A workload whose
// configurations the simulator rejects plans no unit: its sweep fails.
func (o Options) Plan() SweepPlan {
	points := o.Space()
	groups := groupWorkloads(o, points)
	plan := SweepPlan{Points: len(points), Workloads: len(groups)}
	var cfgs []cachesim.Config
	for _, g := range groups {
		cfgs = appendGroupConfigs(cfgs[:0], o, points, g)
		units, _ := cachesim.PassUnitsOf(cfgs)
		for _, u := range units {
			if u.Level {
				plan.InclusionGroups++
				plan.InclusionConfigs += len(u.Configs)
			} else {
				plan.FallbackConfigs++
			}
		}
	}
	return plan
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
