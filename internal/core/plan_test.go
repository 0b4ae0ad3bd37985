package core

import (
	"testing"

	"memexplore/internal/cachesim"
)

// TestPlanMatchesSweepPartition checks that Options.Plan predicts exactly
// the partition the engines build: the same workload grouping, and per
// workload the pass units cachesim builds, split into stack levels and a
// fallback cache per configuration cachesim.InclusionEligible rejects.
func TestPlanMatchesSweepPartition(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		for _, pol := range []struct {
			repl     cachesim.Replacement
			classify bool
		}{{cachesim.LRU, false}, {cachesim.FIFO, false}, {cachesim.LRU, true}} {
			opts := DefaultOptions()
			opts.OptimizeLayout = optimized
			opts.Replacement, opts.Classify = pol.repl, pol.classify
			points := opts.Space()
			groups := groupWorkloads(opts, points)
			var wantGroups, wantIncl, wantFallback int
			for _, g := range groups {
				cfgs := appendGroupConfigs(nil, opts, points, g)
				s, err := cachesim.NewSweep(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				fallback := 0
				for _, cfg := range cfgs {
					if !cachesim.InclusionEligible(cfg) {
						fallback++
					}
				}
				wantGroups += s.PassUnits() - fallback
				wantFallback += fallback
				wantIncl += len(cfgs) - fallback
				s.Release()
			}
			plan := opts.Plan()
			if plan.Points != len(points) || plan.Workloads != len(groups) ||
				plan.InclusionGroups != wantGroups || plan.InclusionConfigs != wantIncl ||
				plan.FallbackConfigs != wantFallback {
				t.Errorf("opt=%v policy=%+v: Plan = %+v, engines built %d groups / %d inclusion / %d fallback over %d workloads",
					optimized, pol, plan, wantGroups, wantIncl, wantFallback, len(groups))
			}
			if plan.PassUnits() != wantGroups+wantFallback {
				t.Errorf("PassUnits = %d, want %d", plan.PassUnits(), wantGroups+wantFallback)
			}
		}
	}
}

// TestPlanClassified pins the classified plan: one trace pass per
// workload, as for any kernel sweep, but every point on a classifying
// fallback cache of its own and no stack level.
func TestPlanClassified(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		opts := DefaultOptions()
		opts.OptimizeLayout = optimized
		opts.Classify = true
		plan := opts.Plan()
		n := len(opts.Space())
		if plan.Points != n || plan.Workloads != opts.Workloads() || plan.FallbackConfigs != n ||
			plan.InclusionGroups != 0 || plan.InclusionConfigs != 0 {
			t.Errorf("optimized=%v: classified plan = %+v, want %d workloads and %d fallbacks",
				optimized, plan, opts.Workloads(), n)
		}
		if plan.ConfigsPerPass() != 1 {
			t.Errorf("optimized=%v: classified ConfigsPerPass = %g, want 1", optimized, plan.ConfigsPerPass())
		}
	}
}

// TestPlanInclusionAmplification documents the headline: the default
// sequential-layout sweep collapses most points into inclusion groups,
// so each pass unit serves well over one configuration.
func TestPlanInclusionAmplification(t *testing.T) {
	opts := DefaultOptions()
	opts.OptimizeLayout = false
	plan := opts.Plan()
	if plan.InclusionGroups == 0 {
		t.Fatal("default sequential sweep formed no inclusion groups")
	}
	if cpp := plan.ConfigsPerPass(); cpp < 1.5 {
		t.Errorf("ConfigsPerPass = %g, want ≥ 1.5 on the default sequential space", cpp)
	}
}
