package memexplore_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memexplore"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// synthPhaseLocalRefs generates a deterministic trace whose accesses are
// confined to small windows at widely separated bases: a hot 4KB window
// walked densely (it carries nearly all granule transitions) interleaved
// with cold 1KB windows at fresh 1MiB-aligned bases, each visited in
// long runs of slowly moving addresses. The phase locality is the point:
// whole mxt v2 chunks (4096 records) sit inside a handful of 64-byte
// granules, so index-guided skipping has real work to do under the
// sampling hash.
func synthPhaseLocalRefs(seed int64, n int) []memexplore.TraceRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]memexplore.TraceRef, 0, n)
	emit := func(addr uint64) {
		r := memexplore.TraceRef{Addr: addr, Kind: trace.Kind(rng.Intn(3))}
		if rng.Intn(16) == 0 {
			r.Size = uint8(1 + rng.Intn(64))
		}
		refs = append(refs, r)
	}
	const hotBase = uint64(1) << 20
	coldBase := uint64(16) << 20
	for len(refs) < n {
		if rng.Intn(2) == 0 {
			// Hot burst: a stride-64 walk around a 4KB window — every
			// record is a granule transition.
			seg := 2048 + rng.Intn(4096)
			off := uint64(rng.Intn(64)) * 64
			for i := 0; i < seg && len(refs) < n; i++ {
				off = (off + 64) % (4 << 10)
				emit(hotBase + off)
			}
		} else {
			// Cold segment: long runs at a fresh base, the address moving
			// only occasionally within a 1KB window — few transitions, and
			// long enough (> one chunk) that whole chunks are cold.
			coldBase += uint64(1) << 20
			seg := 6144 + rng.Intn(8192)
			addr := coldBase
			for i := 0; i < seg && len(refs) < n; i++ {
				if rng.Intn(32) == 0 {
					addr = coldBase + uint64(rng.Intn(16))*64
				}
				emit(addr)
			}
		}
	}
	return refs
}

// encodeV2 serializes refs as mxt v2 with the given writer options.
func encodeV2(t *testing.T, refs []memexplore.TraceRef, wo extrace.V2WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := extrace.WriteBinaryV2Options(&buf, trace.FromRefs(refs).Reader(), wo); err != nil {
		t.Fatalf("encoding v2 trace: %v", err)
	}
	return buf.Bytes()
}

// normalizeSkipStats zeroes the IngestStats fields that legitimately
// differ between an index-skipping run and a full decode: the skip
// counters themselves and the byte count (the index-less artifact is
// shorter).
// Everything else — records, kinds, footprint, stride profile — must be
// bit-identical.
func normalizeSkipStats(st *memexplore.TraceIngestStats) {
	st.ChunksSkipped = 0
	st.RecordsSkipped = 0
	st.BytesRead = 0
}

// TestIndexSkipBitIdentical is the contract of index-guided chunk
// skipping: for any sampling rate and worker count, sweeping an indexed
// artifact (where the reader seeks past chunks the MXTI01 summary proves
// dead) is bit-identical to a full decode of the same records (an
// index-less encoding, which cannot skip anything) — the sampling hash is
// a pure address function, so both runs drop the same records.
func TestIndexSkipBitIdentical(t *testing.T) {
	refs := synthPhaseLocalRefs(42, 100_000)
	indexed := encodeV2(t, refs, extrace.V2WriterOptions{})
	bare := encodeV2(t, refs, extrace.V2WriterOptions{NoIndex: true})

	cases := []struct {
		name       string
		sampleRate float64
		wantSkips  bool // engineered so the indexed run must skip chunks
	}{
		{"sample=0.02", 0.02, true},
		{"sample=0.25", 0.25, false},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(tc.name+"_workers="+itoa(workers), func(t *testing.T) {
				opts := traceTestOptions()
				opts.SampleRate = tc.sampleRate
				opts.SampleSeed = 7
				opts.Workers = workers

				msIdx, stIdx, err := memexplore.ExploreTrace(bytes.NewReader(indexed), opts, memexplore.TraceIngestOptions{})
				if err != nil {
					t.Fatalf("indexed sweep: %v", err)
				}
				msFull, stFull, err := memexplore.ExploreTrace(bytes.NewReader(bare), opts, memexplore.TraceIngestOptions{})
				if err != nil {
					t.Fatalf("full-decode sweep: %v", err)
				}
				if stFull.ChunksSkipped != 0 {
					t.Fatalf("index-less artifact skipped %d chunks; the control run must fully decode", stFull.ChunksSkipped)
				}
				if tc.wantSkips && stIdx.ChunksSkipped == 0 {
					t.Errorf("indexed run skipped no chunks; the property test is vacuous for %s", tc.name)
				}
				if !reflect.DeepEqual(msIdx, msFull) {
					t.Errorf("Metrics diverge between indexed-skip and full decode\nindexed: %+v\nfull:    %+v", msIdx[0], msFull[0])
				}
				normalizeSkipStats(&stIdx)
				normalizeSkipStats(&stFull)
				if !reflect.DeepEqual(stIdx, stFull) {
					t.Errorf("IngestStats diverge between indexed-skip and full decode\nindexed: %+v\nfull:    %+v", stIdx, stFull)
				}
			})
		}
	}
}

// TestIndexSkipBitIdenticalFile repeats the low-rate leg through an
// on-disk file: the indexed artifact, opened as *os.File, must preload
// its index, skip chunks, and still match the streamed full decode.
func TestIndexSkipBitIdenticalFile(t *testing.T) {
	refs := synthPhaseLocalRefs(43, 100_000)
	indexed := encodeV2(t, refs, extrace.V2WriterOptions{})
	bare := encodeV2(t, refs, extrace.V2WriterOptions{NoIndex: true})

	path := filepath.Join(t.TempDir(), "phase.mxt")
	if err := os.WriteFile(path, indexed, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	opts := traceTestOptions()
	opts.SampleRate = 0.02
	opts.SampleSeed = 7

	msIdx, stIdx, err := memexplore.ExploreTrace(f, opts, memexplore.TraceIngestOptions{})
	if err != nil {
		t.Fatalf("file sweep: %v", err)
	}
	msFull, stFull, err := memexplore.ExploreTrace(bytes.NewReader(bare), opts, memexplore.TraceIngestOptions{})
	if err != nil {
		t.Fatalf("full-decode sweep: %v", err)
	}
	if stIdx.ChunksSkipped == 0 {
		t.Error("file run skipped no chunks")
	}
	if !reflect.DeepEqual(msIdx, msFull) {
		t.Error("Metrics diverge between file indexed-skip and streamed full decode")
	}
	normalizeSkipStats(&stIdx)
	normalizeSkipStats(&stFull)
	if !reflect.DeepEqual(stIdx, stFull) {
		t.Errorf("IngestStats diverge between file indexed-skip and streamed full decode\nindexed: %+v\nfull:    %+v", stIdx, stFull)
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
