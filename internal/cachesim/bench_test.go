package cachesim

import (
	"math/rand"
	"testing"

	"memexplore/internal/trace"
)

func benchTrace() *trace.Trace {
	return trace.Concat(
		trace.Loop(0, 4096, 4, 4),
		trace.PingPong(0, 8192, 2000),
	)
}

// BenchmarkAccessDirectMapped measures the per-access cost of the
// direct-mapped fast path.
func BenchmarkAccessDirectMapped(b *testing.B) {
	tr := benchTrace()
	cfg := DefaultConfig(1024, 16, 1)
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrace(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccess8Way measures the set-search cost at high associativity.
func BenchmarkAccess8Way(b *testing.B) {
	tr := benchTrace()
	cfg := DefaultConfig(1024, 16, 8)
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrace(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessClassified measures the 3C-classification overhead
// (the shadow3C table and LRU list) relative to the fast path.
func BenchmarkAccessClassified(b *testing.B) {
	tr := benchTrace()
	cfg := DefaultConfig(1024, 16, 1)
	cfg.Classify = true
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrace(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatch8 measures the single-pass multi-configuration mode on
// eight fallback (FIFO) caches of one sweep.
func BenchmarkBatch8(b *testing.B) {
	tr := benchTrace()
	var cfgs []Config
	for _, size := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		cfg := DefaultConfig(size, 16, 2)
		cfg.Replacement = FIFO
		cfgs = append(cfgs, cfg)
	}
	b.SetBytes(int64(tr.Len() * len(cfgs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSweep(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		s.AccessBlock(tr.Refs())
		s.Stats()
		s.Release()
	}
}

// traceSpaceConfigs is the default trace-sweep space: every (T, L, S)
// with T in 16..1024 bytes, L in 4..64 bytes below T and S in 1..8 ways
// within T/L — 103 configurations over 35 (L, sets) geometries.
func traceSpaceConfigs() []Config {
	var cfgs []Config
	for t := 16; t <= 1024; t *= 2 {
		for l := 4; l <= 64 && l < t; l *= 2 {
			for a := 1; a <= 8 && a <= t/l; a *= 2 {
				cfgs = append(cfgs, DefaultConfig(t, l, a))
			}
		}
	}
	return cfgs
}

// BenchmarkSweepTraceSpace measures the inclusion engine on the default
// trace-sweep space over a mixed stream: a word-by-word loop interleaved
// with a ping-pong pair, then random reads and writes over 64 KiB.
func BenchmarkSweepTraceSpace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := trace.Concat(
		trace.Interleave(trace.Loop(0, 2048, 4, 32), trace.PingPong(1<<20, 1<<20+4096, 16384)),
		randomMixedTrace(rng, 32768, 1<<16),
	)
	cfgs := traceSpaceConfigs()
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSweep(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		refs := tr.Refs()
		for start := 0; start < len(refs); start += CancelCheckInterval {
			s.AccessBlock(refs[start:min(start+CancelCheckInterval, len(refs))])
		}
		s.Stats()
		s.Release()
	}
}
