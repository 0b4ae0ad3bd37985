package memexplore_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"memexplore"
)

// traceTestOptions is the sweep space the golden traces were recorded
// against (see the golden expectations below).
func traceTestOptions() memexplore.Options {
	opts := memexplore.DefaultOptions()
	opts.CacheSizes = []int{32, 64, 128}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1, 2}
	return opts
}

// TestGoldenTraces ingests the bundled gzipped din traces end to end —
// file bytes → streaming reader → batched sweep → selection — and checks
// the known-best configurations. The traces were exported from the
// matadd and compress kernels (tiling 1, sequential layout); regenerate
// with WriteDinTrace + compress/gzip if the kernels ever change.
func TestGoldenTraces(t *testing.T) {
	cases := []struct {
		file      string
		records   int64
		bestLabel string
	}{
		{"matadd.din.gz", 108, "C32L4S1B1"},
		{"compress.din.gz", 4805, "C64L8S1B1"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ms, st, err := memexplore.ExploreTrace(f, traceTestOptions(), memexplore.TraceIngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != tc.records || st.Rejects != 0 || !st.Gzip {
				t.Errorf("ingest stats = %+v, want %d gzipped records", st, tc.records)
			}
			best, ok := memexplore.MinEnergy(ms)
			if !ok {
				t.Fatal("empty sweep")
			}
			if best.Label() != tc.bestLabel {
				t.Errorf("best config = %s, want %s", best.Label(), tc.bestLabel)
			}
		})
	}
}

// TestGoldenTraceMatchesKernelSweep pins the golden file to the live
// kernel: streaming testdata/matadd.din.gz must reproduce, bit for bit,
// the in-memory matadd sweep it was exported from.
func TestGoldenTraceMatchesKernelSweep(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "matadd.din.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, _, err := memexplore.ExploreTrace(f, traceTestOptions(), memexplore.TraceIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	kern, err := memexplore.Kernel("matadd")
	if err != nil {
		t.Fatal(err)
	}
	opts := traceTestOptions()
	opts.Tilings = []int{1}
	opts.OptimizeLayout = false
	want, err := memexplore.Explore(kern, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points from the trace, %d from the kernel", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\n  trace : %+v\n  kernel: %+v", i, got[i], want[i])
		}
	}
}

// TestFacadeTraceEncoders exercises the exported encoders: a kernel trace
// written through WriteDinTrace and WriteBinaryV2Trace streams back
// through NewTraceReader with identical record counts, and the binary
// path round-trips refs bit-exactly.
func TestFacadeTraceEncoders(t *testing.T) {
	kern, err := memexplore.Kernel("matadd")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := memexplore.GenerateTrace(kern, memexplore.SequentialLayout(kern, 0))
	if err != nil {
		t.Fatal(err)
	}

	var din, bin bytes.Buffer
	if n, err := memexplore.WriteDinTrace(&din, tr); err != nil || n != int64(tr.Len()) {
		t.Fatalf("WriteDinTrace = (%d, %v), want %d records", n, err, tr.Len())
	}
	if n, err := memexplore.WriteBinaryV2Trace(&bin, tr); err != nil || n != int64(tr.Len()) {
		t.Fatalf("WriteBinaryV2Trace = (%d, %v), want %d records", n, err, tr.Len())
	}

	rd := memexplore.NewTraceReader(&bin, memexplore.TraceIngestOptions{})
	defer rd.Close()
	var refs []memexplore.TraceRef
	buf := make([]memexplore.TraceRef, 64)
	for {
		n, err := rd.Read(buf)
		refs = append(refs, buf[:n]...)
		if err != nil {
			break
		}
	}
	if len(refs) != tr.Len() {
		t.Fatalf("binary round trip yielded %d refs, want %d", len(refs), tr.Len())
	}
	for i, want := range tr.Refs() {
		if refs[i] != want {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], want)
		}
	}
}

// TestConvertGoldenV2BitIdentical is the transcode smoke: each golden
// din trace re-encoded into columnar mxt v2 must sweep to bit-identical
// metrics, so the fast on-disk format can never drift from the text
// format it mirrors.
func TestConvertGoldenV2BitIdentical(t *testing.T) {
	for _, file := range []string{"matadd.din.gz", "compress.din.gz"} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			exact, st, err := memexplore.ExploreTrace(bytes.NewReader(data), traceTestOptions(), memexplore.TraceIngestOptions{})
			if err != nil {
				t.Fatal(err)
			}

			var v2 bytes.Buffer
			n, tst, err := memexplore.TranscodeTraceV2(&v2, bytes.NewReader(data), memexplore.TraceIngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if n != st.Records || tst.Records != st.Records {
				t.Fatalf("transcode moved %d records (ingest %d), want %d", n, tst.Records, st.Records)
			}
			t.Logf("%s: %d records, %d bytes mxt v2 (din.gz is %d bytes)", file, n, v2.Len(), len(data))

			got, vst, err := memexplore.ExploreTrace(bytes.NewReader(v2.Bytes()), traceTestOptions(), memexplore.TraceIngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if vst.Format != "binaryv2" || vst.Records != st.Records {
				t.Errorf("v2 ingest = format %q, %d records; want binaryv2, %d", vst.Format, vst.Records, st.Records)
			}
			for i := range exact {
				if got[i] != exact[i] {
					t.Fatalf("point %d differs after transcode:\n  v2 : %+v\n  din: %+v", i, got[i], exact[i])
				}
			}
		})
	}
}

// expandGoldenTrace derives a sampling-friendly workload from a golden
// trace: sequential copies of the original at 1 MiB address offsets.
// The bundled traces touch only a handful of 64-byte blocks — far too
// few for block-level sampling to say anything — so the error-bound
// suite widens the block population while preserving the golden access
// pattern segment by segment.
func expandGoldenTrace(t *testing.T, file string, copies int) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := memexplore.NewTraceReader(f, memexplore.TraceIngestOptions{})
	defer rd.Close()
	var refs []memexplore.TraceRef
	buf := make([]memexplore.TraceRef, 1024)
	for {
		n, err := rd.Read(buf)
		refs = append(refs, buf[:n]...)
		if err != nil {
			break
		}
	}
	var din bytes.Buffer
	for k := 0; k < copies; k++ {
		for _, r := range refs {
			din.WriteByte(byte('0' + r.Kind.DinLabel()))
			din.WriteByte(' ')
			din.WriteString(strconv.FormatUint(r.Addr+uint64(k)<<20, 16))
			if r.EffectiveSize() != 1 {
				din.WriteByte(' ')
				din.WriteString(strconv.FormatUint(uint64(r.EffectiveSize()), 10))
			}
			din.WriteByte('\n')
		}
	}
	return din.Bytes()
}

// TestGoldenTraceSampling is the error-bound suite: over expanded
// golden workloads, a sampled sweep at each rate must respect its own
// reported confidence envelope and be bit-identical across reruns and
// worker counts. Two regimes, asserted separately:
//
//   - set-associative points: two-sided — the estimate lands within the
//     envelope (floored at 0.06 absolute for the small-population tail);
//   - direct-mapped points: one-sided — block sampling removes conflict
//     partners along with the blocks, so it can only underestimate a
//     conflict-dominated miss rate (the documented limitation, see
//     docs/TRACE_FORMAT.md); overestimating beyond the envelope is
//     still a bug in either regime.
func TestGoldenTraceSampling(t *testing.T) {
	for _, tc := range []struct {
		file   string
		copies int
	}{
		{"matadd.din.gz", 64},
		{"compress.din.gz", 32},
	} {
		data := expandGoldenTrace(t, tc.file, tc.copies)
		exact, _, err := memexplore.ExploreTrace(bytes.NewReader(data), traceTestOptions(), memexplore.TraceIngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{0.5, 0.1, 0.01} {
			t.Run(tc.file+"/"+strconv.FormatFloat(rate, 'g', -1, 64), func(t *testing.T) {
				opts := traceTestOptions()
				opts.SampleRate = rate
				opts.SampleSeed = 1
				ms, st, err := memexplore.ExploreTrace(bytes.NewReader(data), opts, memexplore.TraceIngestOptions{})
				if errors.Is(err, memexplore.ErrEmptyTrace) {
					// Legal at aggressive rates when the hash filter keeps no
					// blocks at all.
					t.Skipf("rate %g kept no blocks: %v", rate, err)
				}
				if err != nil {
					t.Fatal(err)
				}

				if ms[0].SampleRate != rate {
					t.Errorf("envelope rate = %g, want %g", ms[0].SampleRate, rate)
				}
				if ms[0].SampledRecords <= 0 || ms[0].SampledRecords > st.Records {
					t.Errorf("sampled_records = %d, want within (0, %d]", ms[0].SampledRecords, st.Records)
				}
				for i := range ms {
					diff := ms[i].MissRate - exact[i].MissRate
					over := 3 * ms[i].MissRateCI
					if over < 0.02 {
						over = 0.02
					}
					if diff > over {
						t.Errorf("point %d (%s): sampled miss rate %.4f overestimates exact %.4f by %.4f (> %.4f)",
							i, ms[i].Label(), ms[i].MissRate, exact[i].MissRate, diff, over)
					}
					under := 3 * ms[i].MissRateCI
					if under < 0.06 {
						under = 0.06
					}
					if ms[i].Assoc > 1 && -diff > under {
						t.Errorf("point %d (%s): sampled miss rate %.4f vs exact %.4f, diff %.4f outside envelope %.4f",
							i, ms[i].Label(), ms[i].MissRate, exact[i].MissRate, diff, under)
					}
				}

				// Bit-identical on rerun and at any worker count.
				opts.Workers = 4
				again, _, err := memexplore.ExploreTrace(bytes.NewReader(data), opts, memexplore.TraceIngestOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range ms {
					if again[i] != ms[i] {
						t.Fatalf("point %d not deterministic across worker counts", i)
					}
				}
			})
		}
	}
}

// TestFacadeTraceErrors checks the re-exported error identities.
func TestFacadeTraceErrors(t *testing.T) {
	opts := traceTestOptions()
	if _, _, err := memexplore.ExploreTrace(bytes.NewReader(nil), opts, memexplore.TraceIngestOptions{}); !errors.Is(err, memexplore.ErrEmptyTrace) {
		t.Errorf("empty stream: err = %v, want ErrEmptyTrace", err)
	}
	_, _, err := memexplore.ExploreTrace(bytes.NewReader([]byte("0 10\n0 20\n")), opts,
		memexplore.TraceIngestOptions{MaxRecords: 1})
	if !errors.Is(err, memexplore.ErrTraceRecordLimit) {
		t.Errorf("record limit: err = %v, want ErrTraceRecordLimit", err)
	}
	var perr *memexplore.TraceParseError
	_, _, err = memexplore.ExploreTrace(bytes.NewReader([]byte("nope\n")), opts, memexplore.TraceIngestOptions{})
	if !errors.As(err, &perr) || perr.Line != 1 {
		t.Errorf("malformed stream: err = %v, want *TraceParseError at line 1", err)
	}
}
