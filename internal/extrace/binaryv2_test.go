package extrace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"memexplore/internal/trace"
)

// v2Stream assembles a raw v2 trace from hand-built chunks.
func v2Stream(chunks ...[]trace.Ref) []byte {
	out := []byte(binaryV2Magic)
	for _, c := range chunks {
		out = appendV2Chunk(out, c)
	}
	return out
}

func TestWriteBinaryV2RoundTripExact(t *testing.T) {
	in := binRefs()
	var buf bytes.Buffer
	n, err := WriteBinaryV2(&buf, trace.FromRefs(in).Reader())
	if err != nil || n != int64(len(in)) {
		t.Fatalf("WriteBinaryV2 = %d, %v", n, err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	got := readAll(t, r)
	if len(got) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("record %d = %+v, want %+v (v2 must be bit-exact)", i, got[i], in[i])
		}
	}
	if st := r.Stats(); st.Format != "binaryv2" || st.Gzip {
		t.Errorf("format = %q gzip=%v, want binaryv2/false", st.Format, st.Gzip)
	}
}

// TestBinaryV2MultiChunkRoundTrip spans several writer chunks (and, via
// readAll's 3-record buffer, the decoder's pending-spill path) and checks
// bit-exactness including address deltas that go down as well as up.
func TestBinaryV2MultiChunkRoundTrip(t *testing.T) {
	in := make([]trace.Ref, 3*v2ChunkRecords+17)
	for i := range in {
		addr := uint64(i) * 64
		if i%7 == 0 {
			addr = ^uint64(0) - uint64(i) // huge negative deltas
		}
		in[i] = trace.Ref{Addr: addr, Kind: trace.Kind(i % 3), Size: uint8(i % 5)}
	}
	var buf bytes.Buffer
	n, err := WriteBinaryV2(&buf, trace.FromRefs(in).Reader())
	if err != nil || n != int64(len(in)) {
		t.Fatalf("WriteBinaryV2 = %d, %v", n, err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	got := readAll(t, r)
	if len(got) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	if st := r.Stats(); st.Records != int64(len(in)) {
		t.Errorf("stats records = %d, want %d", st.Records, len(in))
	}
}

func TestBinaryV2GzipAutodetect(t *testing.T) {
	var plain bytes.Buffer
	if _, err := WriteBinaryV2(&plain, trace.FromRefs(binRefs()).Reader()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(plain.Bytes())
	gz.Close()
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	if got := readAll(t, r); len(got) != len(binRefs()) {
		t.Fatalf("got %d records", len(got))
	}
	if st := r.Stats(); st.Format != "binaryv2" || !st.Gzip {
		t.Errorf("format = %q gzip=%v, want binaryv2/true", st.Format, st.Gzip)
	}
}

func TestBinaryV2EmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteBinaryV2(&buf, trace.New(0).Reader())
	if err != nil || n != 0 {
		t.Fatalf("WriteBinaryV2 empty = %d, %v", n, err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(binaryV2Magic)) {
		t.Fatalf("empty v2 trace = %q, want the magic then the index footer", buf.String())
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	rn, rerr := r.Read(make([]trace.Ref, 4))
	if rn != 0 || rerr != io.EOF {
		t.Fatalf("empty v2 trace: n=%d err=%v", rn, rerr)
	}
	if st := r.Stats(); st.Format != "binaryv2" {
		t.Errorf("format = %q", st.Format)
	}
	if ix := r.Index(); ix == nil || len(ix.Chunks) != 0 || ix.Records != 0 {
		t.Errorf("empty v2 trace index = %+v, want an empty index", ix)
	}
}

// TestBinaryV2SizeColumnElided checks the common all-default-size case
// drops the size column (flags bit clear, shorter payload).
func TestBinaryV2SizeColumnElided(t *testing.T) {
	recs := []trace.Ref{{Addr: 0x40, Kind: trace.Read}, {Addr: 0x80, Kind: trace.Write}}
	raw := v2Stream(recs)
	h := raw[len(binaryV2Magic):]
	if flags := binary.LittleEndian.Uint32(h[4:8]); flags != 0 {
		t.Errorf("flags = %#x, want 0 (no size column)", flags)
	}
	addrBytes := binary.LittleEndian.Uint32(h[8:12])
	wantLen := len(binaryV2Magic) + v2HeaderBytes + int(addrBytes) + 1 // 2 kinds pack in 1 byte
	if len(raw) != wantLen {
		t.Errorf("stream length %d, want %d (size column must be elided)", len(raw), wantLen)
	}
	r := NewReader(bytes.NewReader(raw), Options{})
	got := readAll(t, r)
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("round trip = %+v, want %+v", got, recs)
	}
}

func TestBinaryV2CRCMismatch(t *testing.T) {
	c1 := []trace.Ref{{Addr: 0x100, Kind: trace.Read}, {Addr: 0x140, Kind: trace.Write, Size: 4}}
	c2 := []trace.Ref{{Addr: 0x2000, Kind: trace.Fetch}}
	raw := v2Stream(c1, c2)
	// Flip a byte in chunk 1's payload, leaving the frame intact.
	raw[len(binaryV2Magic)+v2HeaderBytes] ^= 0xff

	// Fatal by default, positioned at the chunk start.
	r := NewReader(bytes.NewReader(raw), Options{})
	_, err := r.Read(make([]trace.Ref, 8))
	var perr *ParseError
	if !errors.As(err, &perr) || perr.Format != "binaryv2" || perr.Offset != int64(len(binaryV2Magic)) {
		t.Fatalf("err = %v, want binaryv2 *ParseError at offset %d", err, len(binaryV2Magic))
	}
	if !strings.Contains(perr.Reason, "CRC") {
		t.Errorf("reason = %q, want a CRC mismatch", perr.Reason)
	}

	// Skip mode steps over the whole damaged chunk: its records become
	// rejects and the next chunk still decodes (framing survives).
	r = NewReader(bytes.NewReader(raw), Options{SkipMalformed: true})
	got := readAll(t, r)
	if len(got) != 1 || got[0] != c2[0] {
		t.Fatalf("got %+v, want just chunk 2's record", got)
	}
	if st := r.Stats(); st.Rejects != int64(len(c1)) || st.Records != 1 {
		t.Errorf("rejects=%d records=%d, want %d/1", st.Rejects, st.Records, len(c1))
	}
}

func TestBinaryV2BadKindLabel(t *testing.T) {
	recs := []trace.Ref{
		{Addr: 0x40, Kind: trace.Read},
		{Addr: 0x80, Kind: 3}, // label 3: no writer emits it
		{Addr: 0xc0, Kind: trace.Write, Size: 2},
	}
	raw := v2Stream(recs)

	// Fatal by default, naming the record within the chunk.
	r := NewReader(bytes.NewReader(raw), Options{})
	_, err := r.Read(make([]trace.Ref, 8))
	var perr *ParseError
	if !errors.As(err, &perr) || perr.Offset != int64(len(binaryV2Magic)) {
		t.Fatalf("err = %v, want *ParseError at chunk start", err)
	}
	if !strings.Contains(perr.Reason, "record 1") {
		t.Errorf("reason = %q, want it to name record 1", perr.Reason)
	}

	// Skip mode compacts the bad record away, preserving order.
	r = NewReader(bytes.NewReader(raw), Options{SkipMalformed: true})
	got := readAll(t, r)
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[2] {
		t.Fatalf("got %+v, want the two good records", got)
	}
	if st := r.Stats(); st.Rejects != 1 || st.Records != 2 {
		t.Errorf("rejects=%d records=%d, want 1/2", st.Rejects, st.Records)
	}
}

// TestBinaryV2AllRejectedChunk: a chunk whose every record is bad yields
// no records but must not end the stream early.
func TestBinaryV2AllRejectedChunk(t *testing.T) {
	raw := v2Stream(
		[]trace.Ref{{Addr: 0x40, Kind: 3}, {Addr: 0x80, Kind: 3}},
		[]trace.Ref{{Addr: 0x100, Kind: trace.Read}},
	)
	r := NewReader(bytes.NewReader(raw), Options{SkipMalformed: true})
	got := readAll(t, r)
	if len(got) != 1 || got[0].Addr != 0x100 {
		t.Fatalf("got %+v, want the chunk-2 record", got)
	}
	if st := r.Stats(); st.Rejects != 2 {
		t.Errorf("rejects = %d, want 2", st.Rejects)
	}
}

func TestBinaryV2TruncationFatal(t *testing.T) {
	full := v2Stream(binRefs())
	for _, tc := range []struct {
		name string
		cut  int // bytes to drop from the end
	}{
		{"mid-payload", 2},
		{"mid-header", len(full) - len(binaryV2Magic) - v2HeaderBytes/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := full[:len(full)-tc.cut]
			// Truncation destroys framing: fatal even in skip mode.
			r := NewReader(bytes.NewReader(raw), Options{SkipMalformed: true})
			n, err := r.Read(make([]trace.Ref, 16))
			var perr *ParseError
			if !errors.As(err, &perr) || perr.Format != "binaryv2" {
				t.Fatalf("n=%d err=%v, want a binaryv2 *ParseError", n, err)
			}
			if !strings.Contains(perr.Reason, "truncated") {
				t.Errorf("reason = %q, want truncation", perr.Reason)
			}
		})
	}
}

func TestBinaryV2BadHeaderFatal(t *testing.T) {
	mk := func(count, flags, addrBytes uint32) []byte {
		raw := []byte(binaryV2Magic)
		var h [v2HeaderBytes]byte
		binary.LittleEndian.PutUint32(h[0:4], count)
		binary.LittleEndian.PutUint32(h[4:8], flags)
		binary.LittleEndian.PutUint32(h[8:12], addrBytes)
		return append(raw, h[:]...)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"zero count", mk(0, 0, 1)},
		{"huge count", mk(v2MaxChunkRecords+1, 0, 1)},
		{"unknown flags", mk(1, 0x80, 1)},
		{"zero addr column", mk(1, 0, 0)},
		{"oversized addr column", mk(1, 0, v2MaxUvarint+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Header damage is structural: fatal even in skip mode.
			r := NewReader(bytes.NewReader(tc.raw), Options{SkipMalformed: true})
			_, err := r.Read(make([]trace.Ref, 4))
			var perr *ParseError
			if !errors.As(err, &perr) || perr.Format != "binaryv2" {
				t.Fatalf("err = %v, want a binaryv2 *ParseError", err)
			}
		})
	}
}

func TestBinaryV2MaxRecordsInsideChunk(t *testing.T) {
	var buf bytes.Buffer
	WriteBinaryV2(&buf, trace.FromRefs(binRefs()).Reader())
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{MaxRecords: 2})
	n, err := r.Read(make([]trace.Ref, 16))
	if !errors.Is(err, ErrRecordLimit) || n != 2 {
		t.Fatalf("n=%d err=%v, want 2 records then ErrRecordLimit", n, err)
	}
	if st := r.Stats(); st.Records != 2 {
		t.Errorf("stats records = %d, want 2 (limit semantics match the per-record path)", st.Records)
	}
}

func TestBinaryV2MaxRecordsExactFit(t *testing.T) {
	in := binRefs()
	var buf bytes.Buffer
	WriteBinaryV2(&buf, trace.FromRefs(in).Reader())
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{MaxRecords: int64(len(in))})
	got := readAll(t, r)
	if len(got) != len(in) {
		t.Fatalf("a trace of exactly MaxRecords must read cleanly; got %d", len(got))
	}
}

func TestTranscodeV2(t *testing.T) {
	din := "0 400\n1 440 4\n2 deadbeef\nbogus\n0 480\n"
	var out bytes.Buffer
	n, st, err := TranscodeV2(&out, strings.NewReader(din), Options{SkipMalformed: true})
	if err != nil || n != 4 {
		t.Fatalf("TranscodeV2 = %d, %v", n, err)
	}
	if st.Format != "din" || st.Rejects != 1 || st.Records != 4 {
		t.Errorf("source stats = %+v", st)
	}
	r := NewReader(bytes.NewReader(out.Bytes()), Options{})
	got := readAll(t, r)
	want := []trace.Ref{
		{Addr: 0x400, Kind: trace.Read},
		{Addr: 0x440, Kind: trace.Write, Size: 4},
		{Addr: 0xdeadbeef, Kind: trace.Fetch},
		{Addr: 0x480, Kind: trace.Read},
	}
	if len(got) != len(want) {
		t.Fatalf("transcoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st2 := r.Stats(); st2.Format != "binaryv2" {
		t.Errorf("transcoded format = %q", st2.Format)
	}
}

// TestRejectedRecordsNeverReachStats pins the IngestStats invariant for
// all three formats: a trace with malformed records interleaved, read
// under SkipMalformed, must report statistics identical to the same trace
// with the malformed records removed — only Rejects (and wire-level
// fields) may differ. A regression here means a decoder let a record
// touch the accumulator before rejecting it — or a reader substituted a
// footer profile that still describes the rejected records.
func TestRejectedRecordsNeverReachStats(t *testing.T) {
	good := []trace.Ref{
		{Addr: 0x1000, Kind: trace.Read},
		{Addr: 0x1040, Kind: trace.Write, Size: 8},
		{Addr: 0x20000, Kind: trace.Fetch},
		{Addr: 0x1080, Kind: trace.Read, Size: 2},
	}
	// neutralize clears the fields legitimately allowed to differ between
	// the clean and dirty reads.
	neutralize := func(st IngestStats) IngestStats {
		st.Rejects = 0
		st.BytesRead = 0
		return st
	}
	type rejectCase struct {
		name         string
		clean, dirty []byte
		wantRejects  int64
		// skipLast reads both streams under a chunk policy that skips
		// their last indexed chunk. The clean read takes its footer
		// profile; the dirty one, having rejects, cannot (its footer
		// profiles the rejected records too), so the skipped chunk adds
		// counts only and the stride-derived fields legitimately differ.
		skipLast bool
	}
	var cases []rejectCase

	// din: malformed lines between good ones.
	var clean, dirty strings.Builder
	for i, r := range good {
		line := dinLine(r)
		clean.WriteString(line)
		dirty.WriteString(line)
		if i%2 == 0 {
			dirty.WriteString("7 nonsense\n")
		}
	}
	cases = append(cases, rejectCase{name: "din", clean: []byte(clean.String()), dirty: []byte(dirty.String()), wantRejects: 2})

	// binary v1: framed records with a bad kind label between good ones.
	var cb, db bytes.Buffer
	cb.WriteString(binaryMagic)
	db.WriteString(binaryMagic)
	for i, r := range good {
		rec := binRecord(r)
		cb.Write(rec)
		db.Write(rec)
		if i%2 == 1 {
			db.Write([]byte{3, 9, 0, 0x55}) // framed, kind 9
		}
	}
	cases = append(cases, rejectCase{name: "binary", clean: cb.Bytes(), dirty: db.Bytes(), wantRejects: 2})

	// binary v2: bad kind labels inside a chunk plus a CRC-damaged chunk.
	withBad := []trace.Ref{good[0], {Addr: 0x9999, Kind: 3}, good[1]}
	damaged := []trace.Ref{{Addr: 0x7000, Kind: trace.Read}, {Addr: 0x7040, Kind: trace.Write}}
	cleanV2 := v2Stream([]trace.Ref{good[0], good[1]}, []trace.Ref{good[2], good[3]})
	dirtyV2 := v2Stream(withBad, damaged, []trace.Ref{good[2], good[3]})
	// Corrupt the damaged chunk's payload byte. Its frame starts after the
	// first chunk; recompute that offset from the first chunk's header.
	h := dirtyV2[len(binaryV2Magic):]
	c1addr := binary.LittleEndian.Uint32(h[8:12])
	c1flags := binary.LittleEndian.Uint32(h[4:8])
	c1len := v2HeaderBytes + int(c1addr) + (len(withBad)+3)/4
	if c1flags&v2FlagSizes != 0 {
		c1len += len(withBad)
	}
	dirtyV2[len(binaryV2Magic)+c1len+v2HeaderBytes] ^= 0xff
	cases = append(cases, rejectCase{name: "binaryv2", clean: cleanV2, dirty: dirtyV2, wantRejects: 1 + int64(len(damaged))})

	// indexed binary v2 with a skipped chunk: four chunks of reads over
	// 0x10000–0x10ff8, the first also holding a write at 0xdead0000 and
	// CRC-damaged. The footer profiles that write; the stats must not.
	reads := make([]trace.Ref, 4*v2ChunkRecords)
	for i := range reads {
		reads[i] = trace.Ref{Addr: 0x10000 + uint64(i%512)*8, Kind: trace.Read}
	}
	reads[0] = trace.Ref{Addr: 0xdead0000, Kind: trace.Write}
	var ci, di bytes.Buffer
	WriteBinaryV2(&ci, trace.FromRefs(reads[v2ChunkRecords:]).Reader())
	WriteBinaryV2(&di, trace.FromRefs(reads).Reader())
	dirtyIdx := di.Bytes()
	dirtyIdx[len(binaryV2Magic)+v2HeaderBytes] ^= 0xff
	cases = append(cases, rejectCase{name: "binaryv2-indexed-skip", clean: ci.Bytes(), dirty: dirtyIdx, wantRejects: v2ChunkRecords, skipLast: true})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := NewReader(bytes.NewReader(tc.clean), Options{})
			rd := NewReader(bytes.NewReader(tc.dirty), Options{SkipMalformed: true})
			if tc.skipLast {
				rc.SetChunkPolicy(skipLastChunk(t, tc.clean))
				rd.SetChunkPolicy(skipLastChunk(t, tc.dirty))
			}
			cleanRefs := readAll(t, rc)
			dirtyRefs := readAll(t, rd)
			if len(cleanRefs) != len(dirtyRefs) {
				t.Fatalf("accepted %d dirty records, want %d", len(dirtyRefs), len(cleanRefs))
			}
			for i := range cleanRefs {
				if cleanRefs[i] != dirtyRefs[i] {
					t.Fatalf("record %d = %+v, want %+v", i, dirtyRefs[i], cleanRefs[i])
				}
			}
			cst, dst := rc.Stats(), rd.Stats()
			if dst.Rejects != tc.wantRejects {
				t.Errorf("rejects = %d, want %d", dst.Rejects, tc.wantRejects)
			}
			nc, nd := neutralize(cst), neutralize(dst)
			if tc.skipLast {
				if cst.ChunksSkipped != 1 || dst.ChunksSkipped != 1 {
					t.Fatalf("skipped %d clean and %d dirty chunks, want 1 each", cst.ChunksSkipped, dst.ChunksSkipped)
				}
				for _, st := range []*IngestStats{&nc, &nd} {
					st.Strides, st.StrideOther, st.SequentialFrac = nil, 0, 0
				}
			}
			if !reflect.DeepEqual(nc, nd) {
				t.Errorf("rejected records leaked into stats:\nclean:\n%s\ndirty:\n%s", nc, nd)
			}
		})
	}
}

// skipLastChunk is a chunk policy that skips the last chunk of the
// indexed v2 stream src.
func skipLastChunk(t *testing.T, src []byte) ChunkPolicy {
	t.Helper()
	ix := ProbeIndex(bytes.NewReader(src))
	if ix == nil || len(ix.Chunks) == 0 {
		t.Fatal("stream has no index to skip by")
	}
	last := ix.Chunks[len(ix.Chunks)-1].Offset
	return func(e *ChunkIndexEntry) bool { return e.Offset == last }
}

// dinLine renders one record as a din line.
func dinLine(r trace.Ref) string {
	var sb strings.Builder
	var out bytes.Buffer
	WriteDin(&out, trace.FromRefs([]trace.Ref{r}).Reader())
	sb.Write(out.Bytes())
	return sb.String()
}

// binRecord renders one record as a framed mxt v1 record.
func binRecord(r trace.Ref) []byte {
	var out bytes.Buffer
	writeBinaryV1(&out, trace.FromRefs([]trace.Ref{r}).Reader())
	return out.Bytes()[len(binaryMagic):]
}
