package core

import (
	"fmt"

	"memexplore/internal/cachesim"
)

// Engine selects the sweep execution engine. The zero value (EngineAuto)
// picks the fastest exact engine for the options: the inclusion-grouped
// single-pass engine where the policies allow it, with transparent
// fallback to the batched engine per configuration and to the per-point
// reference engine for classified sweeps. The other values force one
// engine — a debugging and benchmarking knob (results are bit-identical
// across engines, so there is no reason to force one in production).
type Engine int

const (
	// EngineAuto lets the sweep pick: inclusion groups where eligible,
	// batched fallback otherwise, per-point for classified sweeps.
	EngineAuto Engine = iota
	// EnginePerPoint forces the per-point reference engine (one full
	// trace pass per configuration point).
	EnginePerPoint
	// EngineBatched forces the workload-grouped batched engine without
	// inclusion grouping (one trace pass per workload, one cache model
	// per configuration).
	EngineBatched
	// EngineInclusion behaves like EngineAuto: inclusion grouping with
	// per-configuration fallback. It exists so "-engine inclusion" reads
	// naturally next to "per-point" and "batched".
	EngineInclusion
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EnginePerPoint:
		return "per-point"
	case EngineBatched:
		return "batched"
	case EngineInclusion:
		return "inclusion"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine parses a flag spelling ("auto", "per-point", "batched",
// "inclusion"; "" means auto).
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "per-point", "perpoint", "per_point":
		return EnginePerPoint, nil
	case "batched", "batch":
		return EngineBatched, nil
	case "inclusion":
		return EngineInclusion, nil
	}
	return EngineAuto, fmt.Errorf("core: unknown engine %q (want auto, per-point, batched or inclusion)", s)
}

// SweepPlan describes how a sweep's points partition into simulation pass
// units before any trace is generated: how many distinct workload traces
// will be walked, and how the configurations of each workload split into
// inclusion groups (one per-set LRU stack level covering every
// associativity of a (line, sets) geometry) versus per-configuration
// batch fallbacks. The service and CLI surface it as the "configs per
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
	// (ineligible policies or a forced engine).
	FallbackConfigs int
	// Shards, when the plan is for a chunked trace sweep (TraceSweepPlan)
	// of Batch configurations at more than one worker, is the pass-unit
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

// inclusionEligible reports whether the options' cache policies admit
// inclusion grouping at all: the per-set LRU stack model covers exactly
// the simulator's default policy corner (LRU, write-allocate, no victim
// buffer; write-back and write-through both — the write policy never
// changes residency).
func (o Options) inclusionEligible() bool {
	return o.Replacement == cachesim.LRU && !o.NoWriteAllocate && o.VictimLines == 0
}

// Plan computes the sweep's pass partition without running it, mirroring
// the grouping the engines perform: points group by workload (one trace
// pass each), and within a workload every (line, sets) geometry forms
// one inclusion group when the policies are eligible; otherwise every
// configuration falls back to per-configuration simulation.
func (o Options) Plan() SweepPlan {
	points := o.Space()
	plan := SweepPlan{Points: len(points)}
	if o.Classify || o.Engine == EnginePerPoint {
		// The per-point reference engine generates (or re-reads) the
		// workload trace once per point.
		plan.Workloads = len(points)
		plan.FallbackConfigs = len(points)
		return plan
	}
	groups := groupWorkloads(o, points)
	plan.Workloads = len(groups)
	if o.Engine == EngineBatched || !o.inclusionEligible() {
		plan.FallbackConfigs = len(points)
		return plan
	}
	type geom struct{ line, sets int }
	for _, g := range groups {
		seen := make(map[geom]bool)
		for _, pi := range g.indices {
			p := points[pi]
			seen[geom{p.LineSize, p.CacheSize / (p.LineSize * p.Assoc)}] = true
		}
		plan.InclusionGroups += len(seen)
	}
	plan.InclusionConfigs = len(points)
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
	// Report the shard partition the pass-unit fan-out will use, via the
	// cachesim planning mirror (pinned against the built sweep by test).
	points := opts.Space()
	cfgs := make([]cachesim.Config, len(points))
	for i, p := range points {
		cfgs[i] = opts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc)
	}
	shards, err := cachesim.ShardUnits(cfgs, false, opts.effectiveWorkers())
	if err != nil {
		return SweepPlan{}, fmt.Errorf("core: planning trace-sweep shards: %w", err)
	}
	plan.Shards = shards
	return plan, nil
}
