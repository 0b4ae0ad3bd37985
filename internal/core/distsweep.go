package core

// This file is the core surface of distributed trace sweeps: one sweep's
// configuration points are partitioned at pass-unit granularity (whole
// inclusion groups, whole fallback caches — cachesim.ShardConfigs), each
// shard is executed as an ordinary shard-scoped sweep over the same trace
// bytes, and the per-shard Metrics are interleaved back into Space()
// order. Because every stream-thinning decision (sampling and its chunk
// skipping), the Gray-code bus measurement, and the
// rescaling shell are functions of (options, trace bytes) alone — never
// of which points the engine owns — the merged result is bit-identical
// to the single-process ExploreTraceReader run. The wire between a
// coordinator and a peer therefore carries only (options, shard index,
// shard count): both sides re-derive the identical partition.

import (
	"context"
	"fmt"
	"io"

	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
)

// TraceShardPlan partitions the trace sweep's configuration points into
// at most n cost-balanced shards at pass-unit granularity. Each returned
// slice holds ascending indices into opts.Space() (after the trace
// restriction of ExploreTraceReader); together the slices cover every
// point exactly once. Fewer than n shards are returned when the sweep
// has fewer pass units. The partition is deterministic for a given
// (opts, n), so a coordinator and its peers derive the same plan
// independently.
func TraceShardPlan(opts Options, n int) ([][]int, error) {
	opts, err := traceSpace(opts)
	if err != nil {
		return nil, err
	}
	points := opts.Space()
	if len(points) == 0 {
		return nil, invalidOptions("cache_sizes", "the options admit no legal (T, L, S) configuration")
	}
	shards, err := cachesim.ShardConfigs(cacheConfigs(opts, points), n)
	if err != nil {
		return nil, fmt.Errorf("core: planning distributed shards: %w", err)
	}
	return shards, nil
}

// ExploreTraceShard runs shard index of the count-way partition
// TraceShardPlan(opts, count) over the trace streamed from r, returning
// one Metrics per owned point — in the shard's own (ascending-point)
// order — plus the ingest statistics of the pass. The trace is read in
// full exactly as ExploreTraceReader reads it (same filter, same bus
// drive, same ingest accounting), so the returned Metrics are
// bit-identical to the corresponding entries of the full sweep and the
// IngestStats match the full run's for the same source kind.
func ExploreTraceShard(ctx context.Context, r io.Reader, opts Options, ing extrace.Options, index, count int) ([]Metrics, extrace.IngestStats, error) {
	plan, err := TraceShardPlan(opts, count)
	if err != nil {
		return nil, extrace.IngestStats{}, err
	}
	if index < 0 || index >= len(plan) {
		return nil, extrace.IngestStats{}, invalidOptions("shard", "shard index %d outside the %d-shard plan", index, len(plan))
	}
	return exploreTraceSubset(ctx, r, opts, ing, plan[index])
}

// MergeTraceShards interleaves per-shard Metrics — parts[i] being the
// result of ExploreTraceShard(..., i, count) — back into the full
// sweep's Space() order. It re-derives the partition from (opts, count)
// and verifies the parts' shapes against it, so a truncated or misrouted
// shard result fails loudly instead of silently misplacing points.
func MergeTraceShards(opts Options, count int, parts [][]Metrics) ([]Metrics, error) {
	plan, err := TraceShardPlan(opts, count)
	if err != nil {
		return nil, err
	}
	if len(parts) != len(plan) {
		return nil, fmt.Errorf("core: merging shards: got %d shard results, plan has %d shards", len(parts), len(plan))
	}
	total := 0
	for _, sh := range plan {
		total += len(sh)
	}
	out := make([]Metrics, total)
	for si, sh := range plan {
		if len(parts[si]) != len(sh) {
			return nil, fmt.Errorf("core: merging shards: shard %d returned %d metrics, owns %d points", si, len(parts[si]), len(sh))
		}
		for j, pi := range sh {
			out[pi] = parts[si][j]
		}
	}
	return out, nil
}
