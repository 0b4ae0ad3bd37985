package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// randomMixedTrace builds a trace with reads, writes and fetches of mixed
// access widths (including line-spanning references) over a span small
// enough to produce heavy reuse and evictions.
func randomMixedTrace(rng *rand.Rand, nrefs int, span uint64) *trace.Trace {
	tr := trace.New(nrefs)
	sizes := []uint8{0, 1, 2, 4, 8, 16}
	for i := 0; i < nrefs; i++ {
		kind := trace.Read
		switch rng.Intn(10) {
		case 0, 1, 2:
			kind = trace.Write
		case 3:
			kind = trace.Fetch
		}
		tr.Append(trace.Ref{
			Addr: uint64(rng.Int63n(int64(span))),
			Kind: kind,
			Size: sizes[rng.Intn(len(sizes))],
		})
	}
	return tr
}

// TestTraceSweepMatchesPerPointOracle streams a random read/write trace
// through the external-trace sweep — which routes eligible points through
// the inclusion engine and the rest through the batch fallback — and
// checks every point bit-identical to an independent per-configuration
// evaluation of the same trace, across replacement, write-policy and
// victim-buffer combinations. Write traffic is charged into the energy
// model so write-back accounting is observable.
func TestTraceSweepMatchesPerPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := randomMixedTrace(rng, 4000, 4096)
	var buf bytes.Buffer
	if _, err := extrace.WriteBinaryV2(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	addBS := TraceAddBS(tr)

	base := DefaultOptions()
	base.CacheSizes = []int{32, 64, 128, 256}
	base.LineSizes = []int{8, 16}
	base.Assocs = []int{1, 2, 4}
	base.Energy.CountWriteTraffic = true

	for _, repl := range []cachesim.Replacement{cachesim.LRU, cachesim.FIFO, cachesim.Random} {
		for _, writeThrough := range []bool{false, true} {
			for _, victim := range []int{0, 2} {
				opts := base
				opts.Replacement = repl
				opts.WriteThrough = writeThrough
				opts.VictimLines = victim
				name := fmt.Sprintf("repl=%v/wt=%v/victim=%d", repl, writeThrough, victim)
				t.Run(name, func(t *testing.T) {
					ms, st, err := ExploreTraceReader(context.Background(), bytes.NewReader(encoded), opts, extrace.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if st.Records != int64(tr.Len()) {
						t.Fatalf("ingested %d records, want %d", st.Records, tr.Len())
					}
					topts, err := traceSpace(opts)
					if err != nil {
						t.Fatal(err)
					}
					points := topts.Space()
					if len(ms) != len(points) {
						t.Fatalf("sweep returned %d metrics for %d points", len(ms), len(points))
					}
					for i, p := range points {
						cfg := topts.cacheConfig(p.CacheSize, p.LineSize, p.Assoc)
						want, err := EvaluateTraceMeasured(tr, addBS, cfg, p.Tiling, topts.Energy)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(ms[i], want) {
							t.Fatalf("point %d %+v diverges:\n sweep:  %+v\n oracle: %+v", i, p, ms[i], want)
						}
					}
				})
			}
		}
	}
}
