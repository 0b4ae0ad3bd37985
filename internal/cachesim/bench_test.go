package cachesim

import (
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
		if _, err := RunTraceFast(cfg, tr); err != nil {
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
		if _, err := RunTraceFast(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessClassified measures the 3C-classification overhead
// (the shadow3C table and LRU list) relative to the fast path.
func BenchmarkAccessClassified(b *testing.B) {
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

// BenchmarkBatch8 measures the single-pass multi-configuration mode.
func BenchmarkBatch8(b *testing.B) {
	tr := benchTrace()
	var cfgs []Config
	for _, size := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		cfgs = append(cfgs, DefaultConfig(size, 16, 2))
	}
	b.SetBytes(int64(tr.Len() * len(cfgs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(cfgs, tr); err != nil {
			b.Fatal(err)
		}
	}
}
