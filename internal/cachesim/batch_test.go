package cachesim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"memexplore/internal/trace"
)

// batchConfigs are configurations the stack model cannot represent, so
// a Sweep simulates each on its own fallback cache: the batched path.
func batchConfigs() []Config {
	fifo := DefaultConfig(32, 4, 1)
	fifo.Replacement = FIFO
	random := DefaultConfig(64, 8, 2)
	random.Replacement = Random
	noAlloc := DefaultConfig(256, 16, 4)
	noAlloc.WriteAllocate = false
	victim := DefaultConfig(64, 8, 1)
	victim.VictimLines = 2
	victim.WriteBack = false
	return []Config{fifo, random, noAlloc, victim}
}

func batchTestTrace() *trace.Trace {
	return trace.Concat(
		trace.Loop(0, 512, 4, 3),
		trace.PingPong(0, 1024, 200),
		randomMixedTrace(rand.New(rand.NewSource(5)), 2000, 1024),
	)
}

func TestBatchMatchesIndividual(t *testing.T) {
	cfgs := batchConfigs()
	tr := batchTestTrace()
	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.caches) != len(cfgs) || len(s.levels) != 0 {
		t.Fatalf("sweep formed %d levels / %d fallbacks, want 0 / %d", len(s.levels), len(s.caches), len(cfgs))
	}
	batch, err := s.RunTraceContext(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := RunTraceFast(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != solo {
			t.Errorf("config %v: batch %+v != solo %+v", cfg, batch[i], solo)
		}
	}
}

// TestBatchAccessBlockChunkInvariant checks that feeding a trace to the
// fallback caches through AccessBlock in arbitrary chunk sizes produces
// the same statistics as one whole-trace pass — the property the
// streaming external-trace sweep depends on.
func TestBatchAccessBlockChunkInvariant(t *testing.T) {
	cfgs := batchConfigs()
	tr := batchTestTrace()
	refs := tr.Refs()
	var whole []Stats
	for _, chunk := range []int{len(refs), 1, 7, 64, 1000, len(refs) + 1} {
		s, err := NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < len(refs); start += chunk {
			s.AccessBlock(refs[start:min(start+chunk, len(refs))])
		}
		if whole == nil {
			whole = s.Stats()
			continue
		}
		for i, st := range s.Stats() {
			if st != whole[i] {
				t.Errorf("chunk %d config %d: %+v != whole-trace %+v", chunk, i, st, whole[i])
			}
		}
	}
}

func TestBatchErrors(t *testing.T) {
	if _, err := NewSweep(nil); err == nil {
		t.Error("empty sweep should fail")
	}
	bad := DefaultConfig(60, 8, 1)
	bad.Replacement = FIFO
	if _, err := NewSweep([]Config{bad}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestBatchReset(t *testing.T) {
	s, err := NewSweep(batchConfigs())
	if err != nil {
		t.Fatal(err)
	}
	s.AccessBlock([]trace.Ref{{Addr: 0}, {Addr: 8, Kind: trace.Write}})
	s.Reset()
	for i, got := range s.Stats() {
		if got != (Stats{}) {
			t.Errorf("config %d: stats after reset: %+v", i, got)
		}
	}
}

func TestVictimBufferRecoversConflicts(t *testing.T) {
	// Ping-pong between two lines mapping to the same direct-mapped set:
	// without a victim buffer every access misses; with one line of
	// victim storage everything after the cold misses hits.
	base := DefaultConfig(64, 8, 1)
	tr := trace.PingPong(0, 64, 50)
	plain, err := RunTrace(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hits != 0 {
		t.Fatalf("baseline should thrash: %+v", plain)
	}
	withVictim := base
	withVictim.VictimLines = 1
	vc, err := RunTrace(withVictim, tr)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Misses != 2 {
		t.Errorf("victim cache should leave only cold misses: %+v", vc)
	}
	if vc.VictimHits != vc.Hits {
		t.Errorf("all hits here come from the victim buffer: hits=%d victim=%d", vc.Hits, vc.VictimHits)
	}
	if vc.Hits+vc.Misses != vc.Accesses {
		t.Errorf("accounting broken: %+v", vc)
	}
}

func TestVictimBufferCapacity(t *testing.T) {
	// Three conflicting lines, one-entry buffer: rotation evicts the
	// buffer before reuse, so it cannot help. A two-entry buffer can.
	cfg := DefaultConfig(64, 8, 1)
	var tr trace.Trace
	for i := 0; i < 30; i++ {
		tr.Append(trace.Ref{Addr: 0})
		tr.Append(trace.Ref{Addr: 64})
		tr.Append(trace.Ref{Addr: 128})
	}
	small := cfg
	small.VictimLines = 1
	one, err := RunTraceFast(small, &tr)
	if err != nil {
		t.Fatal(err)
	}
	big := cfg
	big.VictimLines = 2
	two, err := RunTraceFast(big, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if one.Hits != 0 {
		t.Errorf("1-entry buffer should not rescue a 3-line rotation: %+v", one)
	}
	if two.Misses != 3 {
		t.Errorf("2-entry buffer should leave only cold misses: %+v", two)
	}
}

func TestVictimDirtyWriteback(t *testing.T) {
	// A dirty line must survive a trip through the victim buffer and be
	// written back when finally dropped.
	cfg := DefaultConfig(16, 8, 1) // 2 lines
	cfg.VictimLines = 1
	c := mustCache(t, cfg)
	c.Access(trace.Ref{Addr: 0, Kind: trace.Write}) // dirty A
	c.Access(trace.Ref{Addr: 16, Kind: trace.Read}) // evict A -> victim
	c.Access(trace.Ref{Addr: 0, Kind: trace.Read})  // victim hit, A back (dirty), B -> victim
	c.Access(trace.Ref{Addr: 16, Kind: trace.Read}) // victim hit, B back, A(dirty) -> victim
	c.Access(trace.Ref{Addr: 32, Kind: trace.Read}) // evict B -> victim, drops A: writeback
	st := c.Stats()
	if st.WriteBacks != 1 {
		t.Errorf("write-backs = %d, want 1 (dirty line dropped from victim)", st.WriteBacks)
	}
	if st.VictimHits != 2 {
		t.Errorf("victim hits = %d, want 2", st.VictimHits)
	}
}

func TestVictimConfigValidation(t *testing.T) {
	cfg := DefaultConfig(64, 8, 1)
	cfg.VictimLines = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative victim size should fail")
	}
}

// Property: a victim buffer never increases the miss count, and the
// no-buffer configuration equals the original simulator.
func TestQuickVictimNeverHurts(t *testing.T) {
	f := func(seed int64, vExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Random(rng, 0, 2048, 600)
		base := DefaultConfig(128, 8, 1)
		plain, err := RunTraceFast(base, tr)
		if err != nil {
			return false
		}
		vc := base
		vc.VictimLines = 1 << (vExp % 4) // 1..8
		withVictim, err := RunTraceFast(vc, tr)
		if err != nil {
			return false
		}
		if withVictim.Misses > plain.Misses {
			return false
		}
		return withVictim.Hits+withVictim.Misses == withVictim.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
