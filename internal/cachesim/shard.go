package cachesim

// This file implements sweep sharding: a Sweep's pass units (stack
// levels and fallback caches) are mutually independent state machines
// that only ever read the shared reference stream, so they can be
// partitioned into disjoint shards and advanced by concurrent workers —
// each shard consuming every block in order — with statistics
// bit-identical to the sequential Sweep.AccessBlock traversal. A shard
// walks the levels it owns, one walk per line size. The partition
// balances estimated per-reference cost, not unit count: one per-set
// stack level walking 8-deep lists costs more per reference than a
// direct-mapped fallback probe.

import "memexplore/internal/trace"

// SweepShard is a disjoint subset of a Sweep's pass units. Shards
// returned by one Shards call cover every unit exactly once, so feeding
// the same blocks to every shard (in any concurrent interleaving across
// shards, but in stream order within each) advances the parent Sweep
// exactly as sequential AccessBlock calls would; statistics are then
// read from the parent Sweep as usual.
type SweepShard struct {
	walks  []*lineWalk
	caches []*Cache
	ranged bool // the walks of a Fork: they log what the range cannot resolve
}

// newSweepShard groups levels into one walk per line size (in order of
// first appearance) alongside the fallback caches.
func newSweepShard(levels []*stackLevel, caches []*Cache) *SweepShard {
	sh := &SweepShard{caches: caches}
	var byLine [][]*stackLevel
	for _, lv := range levels {
		i := 0
		for i < len(byLine) && byLine[i][0].lineBytes != lv.lineBytes {
			i++
		}
		if i == len(byLine) {
			byLine = append(byLine, nil)
		}
		byLine[i] = append(byLine[i], lv)
	}
	for _, ls := range byLine {
		sh.walks = append(sh.walks, newLineWalk(ls))
	}
	return sh
}

// AccessBlock feeds a block of references to every unit of the shard.
func (sh *SweepShard) AccessBlock(block []trace.Ref) {
	for _, w := range sh.walks {
		if sh.ranged {
			w.accessRange(block)
			continue
		}
		w.AccessBlock(block)
	}
	for _, c := range sh.caches {
		c.AccessBlock(block)
	}
}

// Shards partitions the sweep's pass units into at most n cost-balanced
// shards (fewer when the sweep has fewer units; one when n ≤ 1). The
// partition is deterministic for a given sweep and n. The shards borrow
// the sweep's state: use them instead of (never alongside) the parent's
// AccessBlock, and read Stats from the parent before Release as usual.
func (s *Sweep) Shards(n int) []*SweepShard {
	assign := partitionUnits(s.units, n)
	shards := make([]*SweepShard, len(assign))
	for i, units := range assign {
		var levels []*stackLevel
		var own []*Cache
		for _, u := range units {
			if u < len(s.levels) {
				levels = append(levels, s.levels[u])
			} else {
				own = append(own, s.caches[u-len(s.levels)])
			}
		}
		shards[i] = newSweepShard(levels, own)
	}
	return shards
}

// partitionUnits assigns unit indices to at most n shards balancing
// total weight — the LPT greedy heuristic: units are placed heaviest
// first (ties broken by lower index) onto the currently lightest shard
// (ties broken by lower shard index), so the result is deterministic.
// Within a shard, units keep their canonical order. Shards that would
// stay empty (n exceeds the unit count) are dropped.
func partitionUnits(units []PassUnit, n int) [][]int {
	if n > len(units) {
		n = len(units)
	}
	if n <= 1 {
		all := make([]int, len(units))
		for i := range units {
			all[i] = i
		}
		return [][]int{all}
	}
	// Order unit indices by descending weight, stable in index.
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort: unit counts are small
		for j := i; j > 0 && units[order[j]].Weight > units[order[j-1]].Weight; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	assign := make([][]int, n)
	load := make([]int, n)
	for _, u := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[best] = append(assign[best], u)
		load[best] += units[u].Weight
	}
	for _, own := range assign {
		// Restore canonical unit order within the shard.
		for i := 1; i < len(own); i++ {
			for j := i; j > 0 && own[j] < own[j-1]; j-- {
				own[j], own[j-1] = own[j-1], own[j]
			}
		}
	}
	return assign
}

// ShardConfigs partitions the configurations into at most n shards at
// pass-unit granularity: each returned slice lists the configuration
// indices (ascending) whose pass units one shard owns, following exactly
// the LPT assignment Shards performs on the built sweep. Because the cut
// is at unit granularity, every stack level travels whole — the
// grouping rules re-form the identical levels inside each shard's
// configuration subset — which is what makes a shard-scoped sweep's
// per-configuration statistics bit-identical to the full sweep's. This
// is the serialization surface of distributed sweeps: a coordinator and
// its peers re-derive the same partition from (cfgs, n) alone, so the
// wire carries only a shard index and count.
func ShardConfigs(cfgs []Config, n int) ([][]int, error) {
	units, err := PassUnitsOf(cfgs)
	if err != nil {
		return nil, err
	}
	assign := partitionUnits(units, n)
	out := make([][]int, len(assign))
	for i, us := range assign {
		var idx []int
		for _, u := range us {
			idx = append(idx, units[u].Configs...)
		}
		// Units keep canonical order, but a fallback unit's configs can
		// interleave with level configs in Space() order — restore
		// ascending configuration order within the shard.
		for a := 1; a < len(idx); a++ { // insertion sort: shards are small
			for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
				idx[b], idx[b-1] = idx[b-1], idx[b]
			}
		}
		out[i] = idx
	}
	return out, nil
}
