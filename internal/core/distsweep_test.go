package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"memexplore/internal/extrace"
)

// TestTraceShardPlanCovers: for any shard count the plan is a
// deterministic partition of the point space — every point index exactly
// once, ascending within a shard, never more shards than requested.
func TestTraceShardPlanCovers(t *testing.T) {
	opts := traceSweepOptions()
	// The trace space pins the kernel-only axes (tiling, layout), so
	// derive the point count from the trivial one-shard plan.
	whole, err := TraceShardPlan(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, sh := range whole {
		points += len(sh)
	}
	if points < 8 {
		t.Fatalf("trace space has only %d points; widen traceSweepOptions", points)
	}
	for _, n := range []int{1, 2, 3, 5, 8, maxInt(1, points*2)} {
		plan, err := TraceShardPlan(opts, n)
		if err != nil {
			t.Fatal(err)
		}
		again, err := TraceShardPlan(opts, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("n=%d: plan not deterministic", n)
		}
		if len(plan) > n {
			t.Fatalf("n=%d: plan has %d shards", n, len(plan))
		}
		seen := make(map[int]bool)
		for si, sh := range plan {
			if len(sh) == 0 {
				t.Errorf("n=%d: empty shard %d", n, si)
			}
			for i, pi := range sh {
				if i > 0 && sh[i-1] >= pi {
					t.Errorf("n=%d: shard %d not ascending: %v", n, si, sh)
				}
				if seen[pi] {
					t.Errorf("n=%d: point %d in two shards", n, pi)
				}
				seen[pi] = true
			}
		}
		if len(seen) != points {
			t.Errorf("n=%d: plan covers %d of %d points", n, len(seen), points)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestTraceShardMergeBitIdentical is the tentpole property: for any
// shard count, running every shard independently over the same trace
// bytes and merging yields Metrics bit-identical to the single-process
// sweep — and every shard reports the identical IngestStats, since each
// ingests the full stream. Swept exact and sampled, because the sampling
// filter must be a pure function of (options, bytes), never of shard
// membership.
func TestTraceShardMergeBitIdentical(t *testing.T) {
	payload := hotColdDin(120, 60)

	variants := []struct {
		name   string
		sample float64
	}{
		{"exact", 0},
		{"sampled", 0.25},
	}
	for _, v := range variants {
		opts := traceSweepOptions()
		opts.SampleRate = v.sample
		opts.SampleSeed = 7

		want, wantStats, err := ExploreTrace(bytes.NewReader(payload), opts, extrace.Options{})
		if err != nil {
			t.Fatalf("%s: full sweep: %v", v.name, err)
		}
		for _, n := range []int{1, 2, 3, 5, 8} {
			plan, err := TraceShardPlan(opts, n)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([][]Metrics, len(plan))
			for si := range plan {
				ms, st, err := ExploreTraceShard(context.Background(), bytes.NewReader(payload), opts, extrace.Options{}, si, n)
				if err != nil {
					t.Fatalf("%s n=%d: shard %d: %v", v.name, n, si, err)
				}
				if len(ms) != len(plan[si]) {
					t.Fatalf("%s n=%d: shard %d returned %d metrics for %d points",
						v.name, n, si, len(ms), len(plan[si]))
				}
				if !reflect.DeepEqual(st, wantStats) {
					t.Errorf("%s n=%d: shard %d IngestStats diverge\nshard: %+v\nfull:  %+v",
						v.name, n, si, st, wantStats)
				}
				parts[si] = ms
			}
			merged, err := MergeTraceShards(opts, n, parts)
			if err != nil {
				t.Fatalf("%s n=%d: merge: %v", v.name, n, err)
			}
			if !reflect.DeepEqual(merged, want) {
				t.Errorf("%s n=%d: merged metrics diverge from the single-process sweep", v.name, n)
			}
		}
	}
}

// TestExploreTraceShardValidates: out-of-range shard indices are
// invalid-options errors, not panics or silent empties.
func TestExploreTraceShardValidates(t *testing.T) {
	opts := traceSweepOptions()
	plan, err := TraceShardPlan(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	var inv *ErrInvalidOptions
	for _, idx := range []int{-1, len(plan)} {
		_, _, err := ExploreTraceShard(context.Background(), bytes.NewReader(hotColdDin(5, 2)), opts, extrace.Options{}, idx, 3)
		if !errors.As(err, &inv) {
			t.Errorf("shard index %d: err = %v, want ErrInvalidOptions", idx, err)
		}
	}
}

// TestMergeTraceShardsValidates: a part list whose shape disagrees with
// the plan (wrong shard count, wrong per-shard length) is an error.
func TestMergeTraceShardsValidates(t *testing.T) {
	opts := traceSweepOptions()
	plan, err := TraceShardPlan(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeTraceShards(opts, 3, make([][]Metrics, len(plan)+1)); err == nil {
		t.Error("merge accepted a part list longer than the plan")
	}
	parts := make([][]Metrics, len(plan))
	for i := range parts {
		parts[i] = make([]Metrics, len(plan[i]))
	}
	parts[0] = parts[0][:len(parts[0])-1]
	if _, err := MergeTraceShards(opts, 3, parts); err == nil {
		t.Error("merge accepted a short shard part")
	}
}
