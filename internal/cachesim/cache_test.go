package cachesim

import (
	"testing"

	"memexplore/internal/trace"
)

// mustCache builds a classifying cache.
func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	cfg.Classify = true
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		DefaultConfig(16, 4, 1),
		DefaultConfig(64, 8, 2),
		DefaultConfig(1024, 32, 8),
		DefaultConfig(64, 8, 8), // fully associative
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", cfg, err)
		}
	}
	bad := []Config{
		DefaultConfig(0, 4, 1),
		DefaultConfig(48, 4, 1),   // size not pow2
		DefaultConfig(64, 6, 1),   // line not pow2
		DefaultConfig(64, 128, 1), // line > size
		DefaultConfig(64, 8, 3),   // assoc not pow2
		DefaultConfig(64, 8, 16),  // assoc > lines
		{SizeBytes: 64, LineBytes: 8, Assoc: 1, Replacement: Replacement(99)},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", cfg)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(128, 8, 2)
	if got := cfg.NumLines(); got != 16 {
		t.Errorf("NumLines = %d, want 16", got)
	}
	if got := cfg.NumSets(); got != 8 {
		t.Errorf("NumSets = %d, want 8", got)
	}
	if got := cfg.OffsetBits(); got != 3 {
		t.Errorf("OffsetBits = %d, want 3", got)
	}
	if got := cfg.IndexBits(); got != 3 {
		t.Errorf("IndexBits = %d, want 3", got)
	}
	if got := cfg.LineAddr(0x47); got != 8 {
		t.Errorf("LineAddr(0x47) = %d, want 8", got)
	}
	if got := cfg.SetIndex(0x47); got != 0 {
		t.Errorf("SetIndex(0x47) = %d, want 0", got)
	}
	if got := cfg.Tag(0x47); got != 1 {
		t.Errorf("Tag(0x47) = %d, want 1", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, DefaultConfig(64, 8, 1))
	r1 := c.Access(trace.Ref{Addr: 0, Kind: trace.Read})
	if r1.Hit {
		t.Error("first access should miss")
	}
	if r1.Class != Compulsory {
		t.Errorf("first miss class = %v, want compulsory", r1.Class)
	}
	r2 := c.Access(trace.Ref{Addr: 3, Kind: trace.Read}) // same line
	if !r2.Hit {
		t.Error("second access to same line should hit")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.CompulsoryMisses != 1 {
		t.Errorf("compulsory = %d, want 1", s.CompulsoryMisses)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 64B direct-mapped with 8B lines: addresses 0 and 64 map to set 0.
	c := mustCache(t, DefaultConfig(64, 8, 1))
	tr := trace.PingPong(0, 64, 10)
	st, err := c.Run(tr.Reader())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Hits != 0 {
		t.Errorf("ping-pong on conflicting lines should never hit, got %d hits", st.Hits)
	}
	if st.CompulsoryMisses != 2 {
		t.Errorf("compulsory = %d, want 2", st.CompulsoryMisses)
	}
	if st.ConflictMisses != 18 {
		t.Errorf("conflict = %d, want 18 (the rest)", st.ConflictMisses)
	}
	if st.CapacityMisses != 0 {
		t.Errorf("capacity = %d, want 0 (working set of 2 lines fits)", st.CapacityMisses)
	}
}

func TestAssociativityFixesConflict(t *testing.T) {
	// Same ping-pong, but 2-way: both lines fit in set 0.
	c := mustCache(t, DefaultConfig(64, 8, 2))
	st, err := c.Run(trace.PingPong(0, 64, 10).Reader())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (cold only)", st.Misses)
	}
	if st.Hits != 18 {
		t.Errorf("hits = %d, want 18", st.Hits)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2 sets (32B, 8B lines). Touch three lines of set 0:
	// A=0, B=32, C=64. After A,B,C the LRU victim for C is A.
	c := mustCache(t, DefaultConfig(32, 8, 2))
	c.Access(trace.Ref{Addr: 0})
	c.Access(trace.Ref{Addr: 32})
	c.Access(trace.Ref{Addr: 64})
	if c.Contains(0) {
		t.Error("A should have been evicted (LRU)")
	}
	if !c.Contains(32) || !c.Contains(64) {
		t.Error("B and C should be resident")
	}
	// Touch B, then D=96: victim should be C (B is more recent).
	c.Access(trace.Ref{Addr: 32})
	c.Access(trace.Ref{Addr: 96})
	if c.Contains(64) {
		t.Error("C should have been evicted after B was re-touched")
	}
	if !c.Contains(32) {
		t.Error("B should survive")
	}
}

func TestFIFOEviction(t *testing.T) {
	cfg := DefaultConfig(32, 8, 2)
	cfg.Replacement = FIFO
	c := mustCache(t, cfg)
	c.Access(trace.Ref{Addr: 0})  // A filled first
	c.Access(trace.Ref{Addr: 32}) // B
	c.Access(trace.Ref{Addr: 0})  // touch A (FIFO ignores recency)
	c.Access(trace.Ref{Addr: 64}) // C evicts A, not B
	if c.Contains(0) {
		t.Error("FIFO should evict the oldest fill (A) despite recent use")
	}
	if !c.Contains(32) {
		t.Error("B should be resident")
	}
}

func TestRandomReplacementIsDeterministic(t *testing.T) {
	cfg := DefaultConfig(64, 8, 4)
	cfg.Replacement = Random
	tr := trace.Sequential(0, 500, 8)
	a, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("random replacement should be reproducible: %+v vs %+v", a, b)
	}
}

func TestWriteBackAndWriteThrough(t *testing.T) {
	// Write-back: dirty line written back on eviction only.
	wb := DefaultConfig(16, 8, 1) // 2 lines
	c := mustCache(t, wb)
	c.Access(trace.Ref{Addr: 0, Kind: trace.Write}) // miss, fill, dirty
	c.Access(trace.Ref{Addr: 16, Kind: trace.Read}) // set 0 conflict: evict dirty
	st := c.Stats()
	if st.WriteBacks != 1 {
		t.Errorf("write-backs = %d, want 1", st.WriteBacks)
	}
	if st.WriteThroughs != 0 {
		t.Errorf("write-throughs = %d, want 0", st.WriteThroughs)
	}

	// Write-through: every write goes to memory, no write-backs.
	wt := wb
	wt.WriteBack = false
	c2 := mustCache(t, wt)
	c2.Access(trace.Ref{Addr: 0, Kind: trace.Write})
	c2.Access(trace.Ref{Addr: 0, Kind: trace.Write})
	c2.Access(trace.Ref{Addr: 16, Kind: trace.Read})
	st2 := c2.Stats()
	if st2.WriteBacks != 0 {
		t.Errorf("write-throughs mode write-backs = %d, want 0", st2.WriteBacks)
	}
	if st2.WriteThroughs != 2 {
		t.Errorf("write-throughs = %d, want 2", st2.WriteThroughs)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := DefaultConfig(16, 8, 1)
	cfg.WriteAllocate = false
	cfg.WriteBack = false
	c := mustCache(t, cfg)
	c.Access(trace.Ref{Addr: 0, Kind: trace.Write}) // miss, not allocated
	if c.Contains(0) {
		t.Error("write miss should not allocate")
	}
	r := c.Access(trace.Ref{Addr: 0, Kind: trace.Read})
	if r.Hit {
		t.Error("read after non-allocating write miss should miss")
	}
}

func TestLineSpanningAccess(t *testing.T) {
	c := mustCache(t, DefaultConfig(64, 8, 1))
	// 4-byte access at addr 6 spans lines 0 and 1.
	r := c.Access(trace.Ref{Addr: 6, Size: 4, Kind: trace.Read})
	if r.Hit {
		t.Error("cold spanning access should miss")
	}
	if r.LinesTouched != 2 {
		t.Errorf("LinesTouched = %d, want 2", r.LinesTouched)
	}
	st := c.Stats()
	if st.Accesses != 1 {
		t.Errorf("Accesses = %d, want 1", st.Accesses)
	}
	if st.LinesFetched != 2 {
		t.Errorf("LinesFetched = %d, want 2", st.LinesFetched)
	}
	// Now both lines are resident: the same access hits.
	if r2 := c.Access(trace.Ref{Addr: 6, Size: 4, Kind: trace.Read}); !r2.Hit {
		t.Error("repeat spanning access should hit")
	}
}

func TestCapacityMissClassification(t *testing.T) {
	// Stream over a region 4x the cache: all misses after cold ones are
	// capacity, not conflict (sequential lines spread over all sets).
	cfg := DefaultConfig(64, 8, 1)
	cfg.Classify = true
	tr := trace.Loop(0, 256, 8, 3) // 32 lines, 3 passes
	st, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 (region exceeds capacity)", st.Hits)
	}
	if st.CompulsoryMisses != 32 {
		t.Errorf("compulsory = %d, want 32", st.CompulsoryMisses)
	}
	if st.ConflictMisses != 0 {
		t.Errorf("conflict = %d, want 0, got stats %v", st.ConflictMisses, st)
	}
	if st.CapacityMisses != 64 {
		t.Errorf("capacity = %d, want 64", st.CapacityMisses)
	}
}

func TestFullyAssociativeHasNoConflictMisses(t *testing.T) {
	cfg := DefaultConfig(64, 8, 8) // fully associative
	cfg.Classify = true
	tr := trace.Concat(
		trace.PingPong(0, 64, 50),
		trace.Loop(0, 512, 8, 2),
	)
	st, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConflictMisses != 0 {
		t.Errorf("fully associative LRU cache reported %d conflict misses", st.ConflictMisses)
	}
}

func TestResetRestoresColdState(t *testing.T) {
	c := mustCache(t, DefaultConfig(64, 8, 2))
	if _, err := c.Run(trace.Sequential(0, 100, 8).Reader()); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if got := c.Stats(); got != (Stats{}) {
		t.Errorf("stats after reset = %+v", got)
	}
	if got := c.ResidentLines(); got != 0 {
		t.Errorf("resident lines after reset = %d", got)
	}
	r := c.Access(trace.Ref{Addr: 0})
	if r.Hit || r.Class != Compulsory {
		t.Errorf("post-reset first access = %+v, want compulsory miss", r)
	}
}

// TestUnclassifiedMatchesAggregate checks that a cache without
// Config.Classify reports the classified cache's statistics, except that
// every miss counts as a capacity miss.
func TestUnclassifiedMatchesAggregate(t *testing.T) {
	cfg := DefaultConfig(128, 16, 2)
	tr := trace.Concat(
		trace.Loop(0, 1024, 4, 3),
		trace.PingPong(0, 2048, 100),
	)
	plain, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Classify = true
	full, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if full.CompulsoryMisses == 0 || full.CompulsoryMisses == full.Misses {
		t.Fatalf("classified run should split its misses: %+v", full)
	}
	full.CompulsoryMisses, full.CapacityMisses, full.ConflictMisses = 0, full.Misses, 0
	if plain != full {
		t.Errorf("unclassified run diverges: plain=%+v classified=%+v", plain, full)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, Hits: 1, Reads: 1, ReadHits: 1, LinesFetched: 2}
	b := Stats{Accesses: 3, Misses: 3, Writes: 3, WriteMisses: 3, ConflictMisses: 1, WriteBacks: 1}
	a.Add(b)
	if a.Accesses != 4 || a.Hits != 1 || a.Misses != 3 || a.ConflictMisses != 1 || a.WriteBacks != 1 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestMissRateEdgeCases(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.HitRate() != 0 || s.ReadMissRate() != 0 {
		t.Error("empty stats should report zero rates")
	}
	s = Stats{Accesses: 4, Hits: 3, Misses: 1, Reads: 2, ReadMisses: 1}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v", got)
	}
	if got := s.ReadMissRate(); got != 0.5 {
		t.Errorf("ReadMissRate = %v", got)
	}
}

func TestMissClassString(t *testing.T) {
	names := map[MissClass]string{
		NotMiss: "hit", Compulsory: "compulsory", Capacity: "capacity",
		Conflict: "conflict", MissClass(9): "MissClass(9)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := LRU.String(); got != "LRU" {
		t.Errorf("LRU.String() = %q", got)
	}
	if got := FIFO.String(); got != "FIFO" {
		t.Errorf("FIFO.String() = %q", got)
	}
	if got := Random.String(); got != "random" {
		t.Errorf("Random.String() = %q", got)
	}
	if got := Replacement(42).String(); got != "Replacement(42)" {
		t.Errorf("unknown replacement String() = %q", got)
	}
}

func TestConfigString(t *testing.T) {
	if got := DefaultConfig(64, 8, 2).String(); got != "C64L8S2(LRU)" {
		t.Errorf("String = %q", got)
	}
}
