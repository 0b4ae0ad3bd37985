package cachesim

import (
	"math/rand"
	"testing"

	"memexplore/internal/trace"
)

// blockTestTrace mixes reads, writes and line-straddling references so the
// AccessBlock fast paths see every branch.
func blockTestTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := trace.Concat(
		trace.Loop(0, 1024, 4, 3),
		trace.PingPong(0, 256, 80),
		trace.Random(rng, 0, 4096, 400),
	)
	refs := tr.Refs()
	for i := range refs {
		switch i % 5 {
		case 1:
			refs[i].Kind = trace.Write
		case 2:
			refs[i].Kind = trace.Fetch
		case 3:
			// Straddle a line boundary: wide access at an odd offset.
			refs[i].Addr |= 3
			refs[i].Size = 8
		}
	}
	return tr
}

// TestAccessBlockMatchesAccess checks the batched per-block path against
// per-reference Access across policies, write modes and geometries,
// including the configurations that take the AccessBlock fallback path
// (victim buffers).
func TestAccessBlockMatchesAccess(t *testing.T) {
	tr := blockTestTrace()
	var cfgs []Config
	for _, geom := range [][3]int{{64, 8, 1}, {256, 16, 2}, {512, 8, 4}, {128, 16, 8}} {
		for _, repl := range []Replacement{LRU, FIFO, Random} {
			for _, wb := range []bool{true, false} {
				for _, wa := range []bool{true, false} {
					for _, victim := range []int{0, 2} {
						cfg := DefaultConfig(geom[0], geom[1], geom[2])
						cfg.Replacement = repl
						cfg.WriteBack = wb
						cfg.WriteAllocate = wa
						cfg.VictimLines = victim
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}
	for _, cfg := range cfgs {
		ref := mustCache(t, cfg)
		for _, r := range tr.Refs() {
			ref.Access(r)
		}
		blk := mustCache(t, cfg)
		// Uneven chunks exercise the block boundaries.
		refs := tr.Refs()
		for start := 0; start < len(refs); start += 97 {
			end := min(start+97, len(refs))
			blk.AccessBlock(refs[start:end])
		}
		if ref.Stats() != blk.Stats() {
			t.Errorf("%+v: AccessBlock stats %+v != Access stats %+v", cfg, blk.Stats(), ref.Stats())
		}
	}
}

// TestSweepMatchesRun checks a mixed sweep — stack levels and a FIFO
// fallback cache — fed in CancelCheckInterval blocks, as a trace pass
// feeds it, against each configuration's own Cache.Run.
func TestSweepMatchesRun(t *testing.T) {
	tr := blockTestTrace()
	fifo := DefaultConfig(512, 8, 4)
	fifo.Replacement = FIFO
	cfgs := []Config{
		DefaultConfig(64, 8, 1),
		DefaultConfig(256, 16, 2),
		DefaultConfig(512, 8, 4),
		fifo,
	}
	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refs := tr.Refs()
	for start := 0; start < len(refs); start += CancelCheckInterval {
		s.AccessBlock(refs[start:min(start+CancelCheckInterval, len(refs))])
	}
	got := s.Stats()
	for i, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Run(tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("config %d: sweep %+v != Run %+v", i, got[i], want)
		}
	}
}
