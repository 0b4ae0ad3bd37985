package cachesim

import (
	"math/rand"
	"testing"

	"memexplore/internal/trace"
)

// randomMixedTrace builds a trace with reads, writes and fetches of mixed
// access widths (including line-spanning and set-wrapping references) over
// a span small enough to produce heavy reuse and evictions.
func randomMixedTrace(rng *rand.Rand, n int, span uint64) *trace.Trace {
	t := trace.New(n)
	sizes := []uint8{0, 1, 2, 4, 8, 16, 64}
	for i := 0; i < n; i++ {
		kind := trace.Read
		switch rng.Intn(10) {
		case 0, 1, 2:
			kind = trace.Write
		case 3:
			kind = trace.Fetch
		}
		t.Append(trace.Ref{
			Addr: uint64(rng.Int63n(int64(span))),
			Kind: kind,
			Size: sizes[rng.Intn(len(sizes))],
		})
	}
	return t
}

// sweepConfigs builds a mixed configuration set: the full (T, L, S)
// product under the given policies — multiple associativities per
// (L, sets) geometry, so NewSweep forms real inclusion groups — plus,
// when mixIneligible is set, interleaved FIFO/no-write-allocate/victim
// configs exercising the fallback caches.
func sweepConfigs(writeBack, mixIneligible bool) []Config {
	var cfgs []Config
	for _, t := range []int{32, 64, 128} {
		for _, l := range []int{4, 8, 16} {
			if l >= t {
				continue
			}
			for _, a := range []int{1, 2, 4, 8} {
				if a > t/l {
					continue
				}
				cfg := DefaultConfig(t, l, a)
				cfg.WriteBack = writeBack
				cfgs = append(cfgs, cfg)
				if !mixIneligible {
					continue
				}
				switch len(cfgs) % 3 {
				case 0:
					bad := cfg
					bad.Replacement = FIFO
					cfgs = append(cfgs, bad)
				case 1:
					bad := cfg
					bad.WriteAllocate = false
					cfgs = append(cfgs, bad)
				case 2:
					bad := cfg
					bad.VictimLines = 2
					cfgs = append(cfgs, bad)
				}
			}
		}
	}
	return cfgs
}

// TestSweepMatchesIndividualCaches is the engine's ground-truth property
// test: on random mixed traces, every configuration's Stats from the
// mixed inclusion/fallback Sweep must equal — field for field — a fresh
// per-configuration simulation with New.
func TestSweepMatchesIndividualCaches(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 3000, 2048)
		for _, writeBack := range []bool{true, false} {
			for _, mixIneligible := range []bool{false, true} {
				cfgs := sweepConfigs(writeBack, mixIneligible)
				s, err := NewSweep(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.levels) == 0 {
					t.Fatal("configuration set formed no inclusion groups")
				}
				s.AccessBlock(tr.Refs())
				got := s.Stats()
				for i, cfg := range cfgs {
					want, err := RunTrace(cfg, tr)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("seed %d wb=%v mixed=%v: %v diverges:\n sweep: %+v\n cache: %+v",
							seed, writeBack, mixIneligible, cfg, got[i], want)
					}
				}
			}
		}
	}
}

// TestSweepMixedWritePolicies shares one inclusion group between
// write-back and write-through members of the same geometry: residency is
// identical, so the group must serve both traffic accountings at once.
func TestSweepMixedWritePolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomMixedTrace(rng, 2000, 1024)
	var cfgs []Config
	for _, a := range []int{1, 2, 4} {
		// Fixed (L=8, sets=4) geometry: T scales with the associativity.
		wb := DefaultConfig(32*a, 8, a)
		wt := wb
		wt.WriteBack = false
		cfgs = append(cfgs, wb, wt)
	}
	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.levels); got != 1 {
		t.Fatalf("InclusionGroups = %d, want 1 (same geometry throughout)", got)
	}
	s.AccessBlock(tr.Refs())
	got := s.Stats()
	for i, cfg := range cfgs {
		want, err := RunTrace(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("%v diverges:\n sweep: %+v\n cache: %+v", cfg, got[i], want)
		}
	}
}

// TestSweepChunkingInvariance drives the same trace through AccessBlock
// in ragged chunks and checks the statistics match a one-shot pass —
// the contract the streaming external-trace path relies on.
func TestSweepChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomMixedTrace(rng, 2500, 1024)
	cfgs := sweepConfigs(true, true)

	oneShot, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	oneShot.AccessBlock(tr.Refs())

	chunked, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refs := tr.Refs()
	for start := 0; start < len(refs); {
		end := min(start+1+rng.Intn(97), len(refs))
		chunked.AccessBlock(refs[start:end])
		start = end
	}

	a, b := oneShot.Stats(), chunked.Stats()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("config %v: chunked stats diverge:\n one-shot: %+v\n chunked: %+v", cfgs[i], a[i], b[i])
		}
	}
}

// TestSweepReset checks that a reset sweep reproduces its first run.
func TestSweepReset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomMixedTrace(rng, 1200, 512)
	cfgs := sweepConfigs(true, true)
	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	s.AccessBlock(tr.Refs())
	first := s.Stats()
	s.Reset()
	s.AccessBlock(tr.Refs())
	second := s.Stats()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("config %v: run after Reset diverges", cfgs[i])
		}
	}
}

// TestSweepPassUnits pins the partition arithmetic on a known set: three
// assocs of one geometry, one lone geometry and one FIFO point. Every
// eligible geometry gets a stack level, a lone one included.
func TestSweepPassUnits(t *testing.T) {
	cfgs := []Config{
		// One (L=8, sets=8) level: T grows with the associativity.
		DefaultConfig(64, 8, 1),
		DefaultConfig(128, 8, 2),
		DefaultConfig(256, 8, 4),
		DefaultConfig(128, 16, 2), // lone (L=16, sets=4) geometry → its own level
	}
	fifo := DefaultConfig(512, 8, 8)
	fifo.Replacement = FIFO // ineligible policy → fallback
	cfgs = append(cfgs, fifo)

	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.levels) != 2 || len(s.caches) != 1 || s.PassUnits() != 3 || len(s.slots) != 5 {
		t.Fatalf("partition = %d groups, %d fallbacks, %d pass units (want 2, 1, 3)",
			len(s.levels), len(s.caches), s.PassUnits())
	}
}

// TestBatchReleaseReuse checks the backing-array pool round trip: a
// released sweep's fallback arrays serve a subsequent sweep without
// fresh zeroing bugs (the reused cache must start cold).
func TestBatchReleaseReuse(t *testing.T) {
	tr := trace.Sequential(0, 256, 4)
	cfg := DefaultConfig(64, 8, 2)
	cfg.Replacement = FIFO
	run := func() Stats {
		s, err := NewSweep([]Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		s.AccessBlock(tr.Refs())
		st := s.Stats()
		puts := PoolPuts()
		s.Release()
		if PoolPuts() != puts+1 {
			t.Fatalf("Release returned %d line arrays to the pool, want 1", PoolPuts()-puts)
		}
		return st[0]
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("sweep on pooled arrays diverges:\n first: %+v\n second: %+v", first, second)
	}
}
