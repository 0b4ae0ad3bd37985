package cachesim

import (
	"math/rand"
	"reflect"
	"testing"

	"memexplore/internal/trace"
)

// shardTestConfigs builds a mixed sweep: several inclusion-eligible
// geometries (multiple associativities per (line, sets)), a one-config
// geometry, and a fallback configuration (FIFO replacement).
func shardTestConfigs() []Config {
	var cfgs []Config
	for _, size := range []int{64, 128, 256} {
		for _, line := range []int{8, 16} {
			for _, assoc := range []int{1, 2, 4} {
				cfgs = append(cfgs, DefaultConfig(size, line, assoc))
			}
		}
	}
	fifo := DefaultConfig(128, 8, 2)
	fifo.Replacement = FIFO
	cfgs = append(cfgs, fifo)
	cfgs = append(cfgs, DefaultConfig(512, 64, 4)) // one-config geometry
	return cfgs
}

func shardTestTrace(nrefs int) *trace.Trace {
	rng := rand.New(rand.NewSource(99))
	tr := trace.New(nrefs)
	for i := 0; i < nrefs; i++ {
		kind := trace.Read
		if rng.Intn(4) == 0 {
			kind = trace.Write
		}
		tr.Append(trace.Ref{Addr: uint64(rng.Intn(8192)), Kind: kind, Size: uint8(rng.Intn(3) * 4)})
	}
	return tr
}

// TestShardsCoverAllUnits checks that every pass unit lands in exactly
// one shard, for worker counts below, at and above the unit count.
func TestShardsCoverAllUnits(t *testing.T) {
	cfgs := shardTestConfigs()
	for _, n := range []int{1, 2, 3, 7, 100} {
		s, err := NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		shards := s.Shards(n)
		units, weight := 0, 0
		for _, sh := range shards {
			if sh.units == 0 {
				t.Errorf("n=%d: empty shard", n)
			}
			units += sh.units
			weight += sh.weight
		}
		if units != s.PassUnits() {
			t.Errorf("n=%d: shards cover %d units, sweep has %d", n, units, s.PassUnits())
		}
		if want := len(shards); n < want {
			t.Errorf("n=%d produced %d shards", n, want)
		}
		var wantWeight int
		for _, w := range s.unitWeights() {
			wantWeight += w
		}
		if weight != wantWeight {
			t.Errorf("n=%d: shard weights sum to %d, units sum to %d", n, weight, wantWeight)
		}
		s.Release()
	}
}

// TestShardedSweepMatchesSequential drives the same trace through a
// sequential sweep and a sharded one (shards fed round-robin, i.e. any
// serial interleaving) and requires bit-identical statistics.
func TestShardedSweepMatchesSequential(t *testing.T) {
	cfgs := shardTestConfigs()
	tr := shardTestTrace(6000)
	refs := tr.Refs()

	seq, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(refs); start += 512 {
		seq.AccessBlock(refs[start:min(start+512, len(refs))])
	}
	want := seq.Stats()
	seq.Release()

	for _, n := range []int{2, 3, 5, 64} {
		par, err := NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		shards := par.Shards(n)
		for start := 0; start < len(refs); start += 512 {
			block := refs[start:min(start+512, len(refs))]
			for _, sh := range shards {
				sh.AccessBlock(block)
			}
		}
		if got := par.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: sharded stats diverge from sequential", n)
		}
		par.Release()
	}
}

// fallbackOnly returns the configurations under FIFO replacement: a
// sweep over them forms no stack level, so every pass unit is one
// configuration.
func fallbackOnly(cfgs []Config) []Config {
	out := append([]Config(nil), cfgs...)
	for i := range out {
		out[i].Replacement = FIFO
	}
	return out
}

// TestShardUnitsMatchBuiltSweep pins the planning mirror: ShardConfigs
// must predict exactly the partition Shards builds — the same unit
// weights, and per shard the configurations whose pass units the built
// shard owns — on a mixed sweep and on one where everything falls back.
func TestShardUnitsMatchBuiltSweep(t *testing.T) {
	for _, cfgs := range [][]Config{shardTestConfigs(), fallbackOnly(shardTestConfigs())} {
		for _, n := range []int{1, 2, 4, 9, 50} {
			s, err := NewSweep(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := unitConfigsFor(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.unitWeights(); !reflect.DeepEqual(got, want) {
				t.Fatalf("unitConfigsFor weights = %v, built sweep has %v", want, got)
			}
			owner := make(map[any]int) // stack level or fallback cache -> shard
			shards := s.Shards(n)
			for si, sh := range shards {
				for _, w := range sh.walks {
					for _, lv := range w.levels {
						owner[lv] = si
					}
				}
				for _, c := range sh.caches {
					owner[c] = si
				}
			}
			built := make([][]int, len(shards))
			for ci, sl := range s.slots {
				var unit any
				if sl.group >= 0 {
					unit = s.levels[sl.group]
				} else {
					unit = s.caches[sl.member]
				}
				built[owner[unit]] = append(built[owner[unit]], ci)
			}
			planned, err := ShardConfigs(cfgs, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(built, planned) {
				t.Errorf("n=%d: ShardConfigs = %v, Shards built %v", n, planned, built)
			}
			s.Release()
		}
	}
}

// TestPartitionWeightsDeterministic pins the LPT partition: balanced,
// deterministic, canonical order within shards.
func TestPartitionWeightsDeterministic(t *testing.T) {
	weights := []int{12, 4, 4, 7, 3, 3, 3, 9}
	a := partitionWeights(weights, 3)
	b := partitionWeights(weights, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("partition not deterministic: %v vs %v", a, b)
	}
	seen := make(map[int]bool)
	for _, shard := range a {
		for i := 1; i < len(shard); i++ {
			if shard[i] <= shard[i-1] {
				t.Errorf("shard %v not in canonical order", shard)
			}
		}
		for _, u := range shard {
			if seen[u] {
				t.Errorf("unit %d assigned twice", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != len(weights) {
		t.Errorf("partition covered %d of %d units", len(seen), len(weights))
	}
	// LPT on these weights keeps every shard within 2x of the ideal load.
	ideal := (12 + 4 + 4 + 7 + 3 + 3 + 3 + 9) / 3
	for si, shard := range a {
		load := 0
		for _, u := range shard {
			load += weights[u]
		}
		if load > 2*ideal {
			t.Errorf("shard %d load %d exceeds 2x ideal %d", si, load, ideal)
		}
	}
}

// TestShardConfigsPartition pins the config-index view of the shard
// plan: every config index appears in exactly one shard, indices are
// ascending within a shard, the plan is deterministic, and stack levels
// never split across shards.
func TestShardConfigsPartition(t *testing.T) {
	for _, cfgs := range [][]Config{shardTestConfigs(), fallbackOnly(shardTestConfigs())} {
		for _, n := range []int{1, 2, 3, 5, 8, 50} {
			plan, err := ShardConfigs(cfgs, n)
			if err != nil {
				t.Fatal(err)
			}
			again, err := ShardConfigs(cfgs, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, again) {
				t.Fatalf("n=%d: plan not deterministic", n)
			}

			seen := make(map[int]int) // config index -> shard
			for si, shard := range plan {
				if len(shard) == 0 {
					t.Errorf("n=%d: empty shard %d", n, si)
				}
				for i, ci := range shard {
					if i > 0 && shard[i-1] >= ci {
						t.Errorf("n=%d: shard %d not ascending: %v", n, si, shard)
					}
					if ci < 0 || ci >= len(cfgs) {
						t.Fatalf("n=%d: config index %d out of range", n, ci)
					}
					if prev, dup := seen[ci]; dup {
						t.Errorf("n=%d: config %d in shards %d and %d", n, ci, prev, si)
					}
					seen[ci] = si
				}
			}
			if len(seen) != len(cfgs) {
				t.Errorf("n=%d: plan covers %d of %d configs", n, len(seen), len(cfgs))
			}

			// Every stack level — the eligible configs sharing a
			// (line, sets) geometry — must land whole in one shard.
			type geom struct{ line, sets int }
			home := make(map[geom]int)
			for ci, shard := range seen {
				c := cfgs[ci]
				if !InclusionEligible(c) {
					continue
				}
				g := geom{c.LineBytes, c.NumSets()}
				if h, ok := home[g]; ok && h != shard {
					t.Errorf("n=%d: stack level %+v split across shards %d and %d", n, g, h, shard)
				}
				home[g] = shard
			}
		}
	}
}
