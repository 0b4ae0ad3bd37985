package extrace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"memexplore/internal/trace"
)

// trustedRefs builds a multi-chunk trace with phase-local address
// regions, occasional access sizes and every kind: 2 full chunks and a
// short third one under the writer's chunking.
func trustedRefs() []trace.Ref {
	refs := make([]trace.Ref, 2*v2ChunkRecords+904)
	for i := range refs {
		base := uint64(1+i/3000) << 20
		r := trace.Ref{Addr: base + uint64(i*37%4096)*8, Kind: trace.Kind(i % 3)}
		if i%11 == 0 {
			r.Size = uint8(1 + i%64)
		}
		refs[i] = r
	}
	return refs
}

// trustedArtifacts returns the indexed mxt v2 artifacts the property
// tests read: clean, with its second chunk's payload CRC-damaged, and
// with a bad kind label in its first chunk.
func trustedArtifacts(t testing.TB) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteBinaryV2(&buf, trace.FromRefs(trustedRefs()).Reader()); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	ix := ProbeIndex(bytes.NewReader(clean))
	if ix == nil || !ix.HasProfile || len(ix.Chunks) != 3 {
		t.Fatalf("artifact index = %+v, want 3 profiled chunks", ix)
	}

	crc := append([]byte(nil), clean...)
	crc[ix.Chunks[1].Offset+v2HeaderBytes] ^= 0x5a

	// A kind label of 3 in record 5 of chunk 0, with the chunk's CRC
	// recomputed so only the record is damaged.
	kind := append([]byte(nil), clean...)
	h := kind[ix.Chunks[0].Offset:]
	addrBytes := int(binary.LittleEndian.Uint32(h[8:12]))
	payload := h[v2HeaderBytes:ix.Chunks[0].Bytes]
	payload[addrBytes+5/4] |= 3 << ((5 % 4) * 2)
	binary.LittleEndian.PutUint32(h[12:16], crc32.ChecksumIEEE(payload))

	return map[string][]byte{"clean": clean, "crc-damaged": crc, "bad-kind": kind}
}

// readTo drains r in buffers of bufSize records, stopping after stop
// records (stop < 0: to the end of the stream), and returns the records
// delivered and the terminal error (nil for a clean EOF or a stop).
func readTo(r *Reader, bufSize, stop int) ([]trace.Ref, error) {
	var out []trace.Ref
	buf := make([]trace.Ref, bufSize)
	for stop < 0 || len(out) < stop {
		b := buf
		if stop >= 0 && stop-len(out) < len(b) {
			b = b[:stop-len(out)]
		}
		n, err := r.Read(b)
		out = append(out, b[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// accumulatingReader is a reader over seekable src that never trusts the
// footer — the replay reader's configuration, index preloaded.
func accumulatingReader(src []byte, opts Options) *Reader {
	r := NewReader(bytes.NewReader(src), opts)
	r.replayIdx = ProbeIndex(bytes.NewReader(src))
	return r
}

// skipOddChunks is a pure chunk policy over ix skipping every second
// chunk.
func skipOddChunks(ix *TraceIndex) ChunkPolicy {
	odd := map[int64]bool{}
	for i := 1; i < len(ix.Chunks); i += 2 {
		odd[ix.Chunks[i].Offset] = true
	}
	return func(e *ChunkIndexEntry) bool { return odd[e.Offset] }
}

// sameRead reports how two reads of the same bytes differ: in the
// records delivered, the terminal error or the ingest statistics.
func sameRead(gotRefs, wantRefs []trace.Ref, gotErr, wantErr error, got, want IngestStats) error {
	if !reflect.DeepEqual(gotRefs, wantRefs) {
		return fmt.Errorf("delivered %d records, want %d (or contents differ)", len(gotRefs), len(wantRefs))
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("stats diverge\ngot:\n%s\nwant:\n%s", got, want)
	}
	return nil
}

// TestTrustedStatsBitIdentical pins the trusted-footer contract: a
// seekable, profile-bearing mxt v2 read, which counts records and kinds
// and takes the rest from the footer or a replay, reports exactly the
// IngestStats of an accumulating read of the same bytes — clean or
// damaged, with or without SkipMalformed, read to the end or abandoned,
// in any buffer size. Policy reads compare against the replay reader's
// configuration, since a non-seekable stream cannot skip.
func TestTrustedStatsBitIdentical(t *testing.T) {
	for name, src := range trustedArtifacts(t) {
		for _, skip := range []bool{false, true} {
			for _, stop := range []int{-1, 0, 1, 4096, 9000} {
				for _, bufSize := range []int{7, 4096, 10000} {
					opts := Options{SkipMalformed: skip}
					id := fmt.Sprintf("%s/skip=%v/stop=%d/buf=%d", name, skip, stop, bufSize)

					tr := NewReader(bytes.NewReader(src), opts)
					trRefs, trErr := readTo(tr, bufSize, stop)
					if stop != 0 && !tr.trusted {
						t.Fatalf("%s: seekable indexed read did not take the trusted path", id)
					}
					sr := NewReader(nonSeekable{bytes.NewReader(src)}, opts)
					srRefs, srErr := readTo(sr, bufSize, stop)
					if err := sameRead(trRefs, srRefs, trErr, srErr, tr.Stats(), sr.Stats()); err != nil {
						t.Errorf("%s: trusted vs stream: %v", id, err)
					}

					pol := skipOddChunks(ProbeIndex(bytes.NewReader(src)))
					tp := NewReader(bytes.NewReader(src), opts)
					tp.SetChunkPolicy(pol)
					tpRefs, tpErr := readTo(tp, bufSize, stop)
					ap := accumulatingReader(src, opts)
					ap.SetChunkPolicy(pol)
					apRefs, apErr := readTo(ap, bufSize, stop)
					if ap.trusted {
						t.Fatalf("%s: a replay-configured reader took the trusted path", id)
					}
					if err := sameRead(tpRefs, apRefs, tpErr, apErr, tp.Stats(), ap.Stats()); err != nil {
						t.Errorf("%s: trusted vs accumulating with a chunk policy: %v", id, err)
					}
				}
			}
		}
	}
}

// TestTrustedStatsSkipsAccumulation: a clean trusted read to EOF takes
// its profile from the footer without touching the accumulator's
// footprint or stride state — the decode-time saving the trusted path
// exists for.
func TestTrustedStatsSkipsAccumulation(t *testing.T) {
	r := NewReader(bytes.NewReader(trustedArtifacts(t)["clean"]), Options{})
	if _, err := readTo(r, 4096, -1); err != nil {
		t.Fatal(err)
	}
	if r.acc.granules.n != 0 || r.acc.strides.n != 0 {
		t.Errorf("trusted read accumulated %d granules and %d strides, want none", r.acc.granules.n, r.acc.strides.n)
	}
}

// FuzzTrustedIngestStats flips bytes in the chunk region of an indexed
// artifact (its footer stays intact, so the seekable read is trusted)
// and checks that the trusted read and a non-seekable accumulating read
// deliver the same records and error and report identical IngestStats,
// under SkipMalformed or not, stopped early or not, in any buffer size.
// flips is read as 3-byte groups: a 16-bit little-endian position in the
// chunk region and a byte to XOR there.
func FuzzTrustedIngestStats(f *testing.F) {
	src := trustedArtifacts(f)["clean"]
	ix := ProbeIndex(bytes.NewReader(src))
	chunksEnd := ix.Chunks[len(ix.Chunks)-1].Offset + ix.Chunks[len(ix.Chunks)-1].Bytes
	region := int(chunksEnd) - len(binaryV2Magic)
	f.Add([]byte{}, false, int16(-1), uint16(4096))
	f.Add([]byte{16, 0, 0xff}, true, int16(-1), uint16(7))
	f.Add([]byte{0x40, 0x30, 0x01}, true, int16(4096), uint16(10000))
	f.Add([]byte{2, 0, 0x01, 0x10, 0x41, 0x80}, false, int16(9000), uint16(100))
	f.Fuzz(func(t *testing.T, flips []byte, skip bool, stop int16, bufSize uint16) {
		data := append([]byte(nil), src...)
		for i := 0; i+3 <= len(flips); i += 3 {
			pos := int(binary.LittleEndian.Uint16(flips[i:])) % region
			data[len(binaryV2Magic)+pos] ^= flips[i+2]
		}
		opts := Options{SkipMalformed: skip}
		size := 1 + int(bufSize)%10000
		tr := NewReader(bytes.NewReader(data), opts)
		trRefs, trErr := readTo(tr, size, int(stop))
		if stop != 0 && !tr.trusted {
			t.Fatal("the footer is intact, but the seekable read is not trusted")
		}
		sr := NewReader(nonSeekable{bytes.NewReader(data)}, opts)
		srRefs, srErr := readTo(sr, size, int(stop))
		if err := sameRead(trRefs, srRefs, trErr, srErr, tr.Stats(), sr.Stats()); err != nil {
			t.Fatal(err)
		}
	})
}
