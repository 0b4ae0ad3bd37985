package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// traceSweepOptions is a small, fast (T, L, S) space shared by the
// streaming tests.
func traceSweepOptions() Options {
	opts := DefaultOptions()
	opts.CacheSizes = []int{32, 64, 128}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1, 2}
	return opts
}

// exportKernelTrace regenerates exactly the trace the in-memory batched
// engine simulates for tiling 1 under a sequential layout.
func exportKernelTrace(t *testing.T, n *loopir.Nest) *trace.Trace {
	t.Helper()
	tiled, err := loopir.TileAll(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestExploreTraceRoundTripBitIdentical checks the central equivalence:
// for every paper kernel, exporting its trace to the din text format and
// sweeping the exported stream produces bit-identical Metrics to the
// in-memory kernel sweep over the same (T, L, S) space.
func TestExploreTraceRoundTripBitIdentical(t *testing.T) {
	opts := traceSweepOptions()
	kernelOpts := opts
	kernelOpts.Tilings = []int{1}
	kernelOpts.OptimizeLayout = false
	for _, n := range kernels.PaperBenchmarks() {
		n := n
		t.Run(n.Name, func(t *testing.T) {
			want, err := Explore(n, kernelOpts)
			if err != nil {
				t.Fatal(err)
			}
			tr := exportKernelTrace(t, n)
			var din bytes.Buffer
			if _, err := extrace.WriteDin(&din, tr.Reader()); err != nil {
				t.Fatal(err)
			}
			got, st, err := ExploreTrace(&din, opts, extrace.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != int64(tr.Len()) {
				t.Fatalf("ingested %d records, trace has %d", st.Records, tr.Len())
			}
			if len(got) != len(want) {
				t.Fatalf("trace sweep has %d points, kernel sweep %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("point %d differs:\n  trace : %+v\n  kernel: %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestExploreTraceBinaryRoundTrip is the same equivalence through the
// mxt v2 binary format for one kernel.
func TestExploreTraceBinaryRoundTrip(t *testing.T) {
	opts := traceSweepOptions()
	kernelOpts := opts
	kernelOpts.Tilings = []int{1}
	kernelOpts.OptimizeLayout = false
	n := kernels.MatAdd()
	want, err := Explore(n, kernelOpts)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if _, err := extrace.WriteBinaryV2(&bin, exportKernelTrace(t, n).Reader()); err != nil {
		t.Fatal(err)
	}
	got, st, err := ExploreTrace(&bin, opts, extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != "binaryv2" {
		t.Fatalf("format = %q", st.Format)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: %+v != %+v", i, got[i], want[i])
		}
	}
}

// dinGenerator synthesizes a din-format trace on the fly: an io.Reader
// that never holds more than one line, so tests can stream arbitrarily
// many records through the sweep without ever materializing a trace.
type dinGenerator struct {
	records int64 // total to emit; < 0 = endless
	emitted int64
	buf     []byte
}

func (g *dinGenerator) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(g.buf) == 0 {
			if g.records >= 0 && g.emitted >= g.records {
				if n == 0 {
					return 0, io.EOF
				}
				return n, nil
			}
			// A strided sweep over a 64 KiB window: bounded footprint,
			// unbounded length.
			addr := uint64(g.emitted*4) % (64 << 10)
			kind := byte('0' + g.emitted%2)
			g.buf = append(g.buf[:0], kind, ' ')
			g.buf = appendHex(g.buf, addr)
			g.buf = append(g.buf, " 4\n"...)
			g.emitted++
		}
		c := copy(p[n:], g.buf)
		g.buf = g.buf[c:]
		n += c
	}
	return n, nil
}

func appendHex(b []byte, v uint64) []byte {
	return fmt.Appendf(b, "%x", v)
}

// TestExploreTraceStreamsConstantMemory ingests two million records from
// a generator that never holds the trace and checks that the sweep's heap
// growth stays far below the materialized trace size (2M refs would be
// 32 MiB) — the constant-memory streaming contract.
func TestExploreTraceStreamsConstantMemory(t *testing.T) {
	const records = 2_000_000
	opts := traceSweepOptions()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ms, st, err := ExploreTrace(&dinGenerator{records: records}, opts, extrace.Options{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != records {
		t.Fatalf("ingested %d records, want %d", st.Records, records)
	}
	if len(ms) == 0 || ms[0].Accesses != records {
		t.Fatalf("sweep accesses = %d, want %d", ms[0].Accesses, records)
	}
	if st.FootprintBytes > 80<<10 || st.FootprintBytes == 0 {
		t.Errorf("footprint = %d bytes, want ~64 KiB window", st.FootprintBytes)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
		t.Errorf("heap grew by %d bytes during a streaming sweep (> 8 MiB: trace materialized?)", grew)
	}
}

// cancelAfterReader cancels a context after the underlying reader has
// served n bytes, simulating a client disconnect mid-stream.
type cancelAfterReader struct {
	r      io.Reader
	n      int64
	served int64
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.served += int64(n)
	if c.served >= c.n {
		c.cancel()
	}
	return n, err
}

func TestExploreTraceMidStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Endless generator: only cancellation can stop the sweep.
	src := &cancelAfterReader{r: &dinGenerator{records: -1}, n: 1 << 20, cancel: cancel}
	_, st, err := ExploreTraceReader(ctx, src, traceSweepOptions(), extrace.Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, should also wrap context.Canceled", err)
	}
	if st.Records == 0 {
		t.Error("partial ingest stats should report the records read before cancellation")
	}
}

func TestExploreTraceErrors(t *testing.T) {
	opts := traceSweepOptions()

	// Empty stream.
	if _, _, err := ExploreTrace(strings.NewReader(""), opts, extrace.Options{}); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty stream: err = %v, want ErrEmptyTrace", err)
	}
	// Comments only is still empty.
	if _, _, err := ExploreTrace(strings.NewReader("# nothing\n"), opts, extrace.Options{}); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("comment-only stream: err = %v, want ErrEmptyTrace", err)
	}

	// Malformed record surfaces the parse error with its line number.
	_, st, err := ExploreTrace(strings.NewReader("0 10\nbogus\n"), opts, extrace.Options{})
	var perr *extrace.ParseError
	if !errors.As(err, &perr) || perr.Line != 2 {
		t.Errorf("malformed stream: err = %v, want *extrace.ParseError at line 2", err)
	}
	if st.Records != 1 {
		t.Errorf("stats on failure report %d records, want the 1 read before the error", st.Records)
	}

	// Skip mode turns the same stream into a 1-record sweep.
	ms, st, err := ExploreTrace(strings.NewReader("0 10\nbogus\n"), opts, extrace.Options{SkipMalformed: true})
	if err != nil || st.Rejects != 1 || ms[0].Accesses != 1 {
		t.Errorf("skip mode: err=%v rejects=%d accesses=%d", err, st.Rejects, ms[0].Accesses)
	}

	// Record limit.
	_, _, err = ExploreTrace(&dinGenerator{records: 100}, opts, extrace.Options{MaxRecords: 10})
	if !errors.Is(err, extrace.ErrRecordLimit) {
		t.Errorf("record limit: err = %v, want ErrRecordLimit", err)
	}

	// Classification is a per-point feature; the streaming sweep rejects it.
	classify := opts
	classify.Classify = true
	var inv *ErrInvalidOptions
	if _, _, err := ExploreTrace(strings.NewReader("0 10\n"), classify, extrace.Options{}); !errors.As(err, &inv) || inv.Field != "classify" {
		t.Errorf("classify: err = %v, want ErrInvalidOptions{classify}", err)
	}

	// Empty config space.
	narrow := opts
	narrow.CacheSizes = []int{16}
	narrow.LineSizes = []int{16}
	if _, _, err := ExploreTrace(strings.NewReader("0 10\n"), narrow, extrace.Options{}); !errors.As(err, &inv) {
		t.Errorf("empty space: err = %v, want ErrInvalidOptions", err)
	}
}

// TestExploreTraceIgnoresTilingAndLayout: the caller's Tilings and
// OptimizeLayout cannot apply to a recorded trace and must not change
// the result.
func TestExploreTraceIgnoresTilingAndLayout(t *testing.T) {
	var din bytes.Buffer
	if _, err := extrace.WriteDin(&din, exportKernelTrace(t, kernels.MatAdd()).Reader()); err != nil {
		t.Fatal(err)
	}
	payload := din.Bytes()

	base := traceSweepOptions()
	want, _, err := ExploreTrace(bytes.NewReader(payload), base, extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fancy := base
	fancy.Tilings = []int{1, 2, 4, 8}
	fancy.OptimizeLayout = true
	got, _, err := ExploreTrace(bytes.NewReader(payload), fancy, extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("space size changed: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d changed under tiling/layout options", i)
		}
	}
}
