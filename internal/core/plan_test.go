package core

import (
	"testing"

	"memexplore/internal/cachesim"
)

// TestPlanMatchesSweepPartition checks that Options.Plan predicts exactly
// the partition the engines build: the same workload grouping, and per
// workload the same inclusion-group/fallback split cachesim reports.
func TestPlanMatchesSweepPartition(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO} {
			opts := DefaultOptions()
			opts.OptimizeLayout = optimized
			opts.Replacement = repl
			points := opts.Space()
			groups := groupWorkloads(opts, points)
			var wantGroups, wantIncl, wantFallback int
			for _, g := range groups {
				cfgs := groupConfigs(opts, points, g)
				s, err := cachesim.NewSweep(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				wantGroups += s.InclusionGroups()
				wantFallback += s.FallbackConfigs()
				wantIncl += len(cfgs) - s.FallbackConfigs()
				s.Release()
			}
			plan := opts.Plan()
			if plan.Points != len(points) || plan.Workloads != len(groups) ||
				plan.InclusionGroups != wantGroups || plan.InclusionConfigs != wantIncl ||
				plan.FallbackConfigs != wantFallback {
				t.Errorf("opt=%v repl=%v: Plan = %+v, engines built %d groups / %d inclusion / %d fallback over %d workloads",
					optimized, repl, plan, wantGroups, wantIncl, wantFallback, len(groups))
			}
			if plan.PassUnits() != wantGroups+wantFallback {
				t.Errorf("PassUnits = %d, want %d", plan.PassUnits(), wantGroups+wantFallback)
			}
		}
	}
}

// TestPlanPerPoint pins the degenerate plan: classified sweeps pay one
// trace pass per point and share nothing.
func TestPlanPerPoint(t *testing.T) {
	opts := DefaultOptions()
	opts.Classify = true
	plan := opts.Plan()
	n := len(opts.Space())
	if plan.Workloads != n || plan.FallbackConfigs != n || plan.InclusionGroups != 0 {
		t.Errorf("classified plan = %+v, want %d workloads and fallbacks", plan, n)
	}
	if plan.ConfigsPerPass() != 1 {
		t.Errorf("classified ConfigsPerPass = %g, want 1", plan.ConfigsPerPass())
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
