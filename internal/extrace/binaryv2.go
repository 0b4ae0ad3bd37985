package extrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"memexplore/internal/trace"
)

// binaryV2Magic opens every mxt v2 columnar trace. Like the v1 magic,
// the "\r\n" tail catches text-mode newline mangling.
const binaryV2Magic = "MXTB02\r\n"

// mxt v2 columnar chunk layout (after the magic): a sequence of
// self-framed chunks, each
//
//	header (16 bytes, little-endian uint32s):
//	  [0:4]   record count n (1 ≤ n ≤ v2MaxChunkRecords)
//	  [4:8]   flags (bit 0: a size column follows the kind column)
//	  [8:12]  addrBytes — byte length of the address column
//	  [12:16] CRC-32 (IEEE) of the payload that follows
//	payload (addrBytes + ⌈n/4⌉ [+ n] bytes):
//	  address column: the first record's address as a plain uvarint,
//	    then n−1 zig-zag-encoded deltas (uvarint of zigzag(addrᵢ−addrᵢ₋₁));
//	    each chunk restarts from an absolute address, so chunks decode
//	    independently of one another
//	  kind column: 2 bits per record, record i in byte i/4 at bit (i%4)·2
//	  size column (only when flags bit 0): one byte per record; omitted
//	    when every size in the chunk is 0 (the default-size common case)
//
// After the last chunk, WriteBinaryV2 appends the MXTI01 index footer
// (see index.go); the decoder recognizes its magic where a chunk header
// would start and treats it as the clean end of the chunk stream.
//
// Decoding is columnar and branch-light: one varint loop reconstructs
// every address, one unpack loop spreads the kinds, and a single scan
// validates kind labels — no per-record function calls, so a whole chunk
// lands in the caller's pooled slab in one readChunk. The bytes come
// through a streamInput's bufio window. Clean EOF is only
// legal at a chunk boundary. A CRC mismatch or an undecodable column is
// chunk-level damage: fatal normally, or — because the frame length is
// still trusted — skippable as n rejects under Options.SkipMalformed. A
// bad kind label (the 2-bit field admits 3) is record-level damage:
// fatal normally, compacted away as a reject in skip mode.
const (
	v2ChunkRecords    = 4096  // records per chunk written by WriteBinaryV2
	v2MaxChunkRecords = 65536 // cap accepted by the decoder
	v2HeaderBytes     = 16
	v2FlagSizes       = 1 // header flag bit 0: size column present
	v2MaxUvarint      = 10
)

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0→0, −1→1, 1→2, …); unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Mix64 is the splitmix64 finalizer — the shared hash behind SHARDS
// spatial sampling. Transcode-time sampling (WriteBinaryV2Options) and
// the sweep-time filter in internal/core use this one definition, so a
// stored sample and a live sample with the same rate, seed and granule
// keep exactly the same granules.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SampleThreshold maps a sampling rate in (0, 1] to the Mix64 keep
// threshold: a granule g is kept when Mix64(g^seed) < threshold, so
// threshold/2^64 ≈ rate (saturating near 1).
func SampleThreshold(rate float64) uint64 {
	t := math.Ldexp(rate, 64)
	if t >= math.Ldexp(1, 64) {
		return ^uint64(0)
	}
	return uint64(t)
}

// binV2Decoder streams the v2 columnar format chunk-at-a-time.
type binV2Decoder struct {
	in   *streamInput
	opts Options
	acc  *accumulator
	off  int64 // decompressed byte offset of the next chunk start

	// idx is the parsed MXTI01 footer: preloaded through probeIndex on
	// seekable sources, or discovered when the streaming decoder reaches
	// the footer. policy, when non-nil, is consulted per indexed chunk
	// before any byte of it is read; chunk tracks the entry matching the
	// stream position.
	idx    *TraceIndex
	policy ChunkPolicy
	chunk  int

	// pend holds records decoded from a chunk larger than the caller's
	// buffer; they drain across readChunk calls before the next chunk is
	// read. The common sweep path hands in full pooled slabs (≥ chunk
	// size), so pend stays unused there.
	pend    []trace.Ref
	pendOff int
}

// readChunk decodes up to len(buf) records directly into buf and
// reports how many it wrote. It returns io.EOF only at a clean chunk
// boundary with no records, and never both records and an error.
func (d *binV2Decoder) readChunk(buf []trace.Ref) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if d.pendOff < len(d.pend) {
		n := copy(buf, d.pend[d.pendOff:])
		d.pendOff += n
		return n, nil
	}
	for {
		// Index-guided skipping: when the sweep's filter can prove from
		// the index entry that no record of the next chunk needs
		// simulating, step over the whole frame without touching it.
		if d.policy != nil && d.idx != nil && d.chunk < len(d.idx.Chunks) {
			e := &d.idx.Chunks[d.chunk]
			if e.Offset != d.off {
				// The index disagrees with the actual framing (e.g. a
				// damaged chunk was stepped over in skip mode): stop
				// trusting it and decode everything from here on.
				d.policy = nil
			} else if d.policy(e) {
				if err := d.in.skip(e.Bytes); err != nil {
					return 0, &ParseError{Format: "binaryv2", Offset: d.off, Err: err,
						Reason: fmt.Sprintf("truncated indexed chunk (%d bytes): %v", e.Bytes, err)}
				}
				d.off += e.Bytes
				d.chunk++
				d.acc.skipChunk(e)
				continue
			}
		}
		chunkStart := d.off
		hdr, err := d.in.next(v2HeaderBytes)
		if err == io.EOF {
			return 0, io.EOF
		}
		if err != nil {
			if isIndexPrefix(hdr) {
				// A truncated footer tail: the chunk stream itself ended
				// cleanly, so degrade to index-less EOF.
				return 0, io.EOF
			}
			return 0, &ParseError{Format: "binaryv2", Offset: chunkStart, Err: err,
				Reason: fmt.Sprintf("truncated chunk header: %v", err)}
		}
		if string(hdr[:len(indexMagic)]) == indexMagic {
			d.consumeFooter(hdr, chunkStart)
			return 0, io.EOF
		}
		count := binary.LittleEndian.Uint32(hdr[0:4])
		flags := binary.LittleEndian.Uint32(hdr[4:8])
		addrBytes := binary.LittleEndian.Uint32(hdr[8:12])
		wantCRC := binary.LittleEndian.Uint32(hdr[12:16])
		if count == 0 || count > v2MaxChunkRecords {
			return 0, &ParseError{Format: "binaryv2", Offset: chunkStart,
				Reason: fmt.Sprintf("bad chunk record count %d (want 1..%d)", count, v2MaxChunkRecords)}
		}
		if flags&^uint32(v2FlagSizes) != 0 {
			return 0, &ParseError{Format: "binaryv2", Offset: chunkStart,
				Reason: fmt.Sprintf("unknown chunk flags %#x", flags)}
		}
		if addrBytes == 0 || addrBytes > count*v2MaxUvarint {
			return 0, &ParseError{Format: "binaryv2", Offset: chunkStart,
				Reason: fmt.Sprintf("bad address column length %d for %d records", addrBytes, count)}
		}
		payloadLen := int(addrBytes) + (int(count)+3)/4
		if flags&v2FlagSizes != 0 {
			payloadLen += int(count)
		}
		p, err := d.in.next(payloadLen)
		if err != nil {
			return 0, &ParseError{Format: "binaryv2", Offset: chunkStart, Err: err,
				Reason: fmt.Sprintf("truncated chunk payload: want %d bytes: %v", payloadLen, err)}
		}
		d.off += int64(v2HeaderBytes + payloadLen)
		d.chunk++
		if got := crc32.ChecksumIEEE(p); got != wantCRC {
			// The frame length is still trusted, so the damaged chunk can be
			// stepped over whole in skip mode.
			if d.opts.SkipMalformed {
				d.acc.reject(int64(count))
				continue
			}
			return 0, &ParseError{Format: "binaryv2", Offset: chunkStart,
				Reason: fmt.Sprintf("chunk CRC mismatch (got %#08x, want %#08x)", got, wantCRC)}
		}

		// Decode straight into the caller's buffer when it fits; otherwise
		// into the pending slab, drained across calls.
		dst := buf
		spill := len(buf) < int(count)
		if spill {
			if cap(d.pend) < int(count) {
				d.pend = make([]trace.Ref, count)
			}
			dst = d.pend[:count]
		}
		n, perr := d.decodeColumns(dst[:count], p, int(count), int(addrBytes), flags)
		if perr != nil {
			if d.opts.SkipMalformed {
				d.acc.reject(int64(count))
				continue
			}
			perr.Offset = chunkStart
			return 0, perr
		}
		if n == 0 {
			continue // every record of the chunk was a rejected kind
		}
		if spill {
			d.pend = d.pend[:n]
			d.pendOff = copy(buf, d.pend)
			return d.pendOff, nil
		}
		return n, nil
	}
}

// isIndexPrefix reports whether p is a (possibly short) prefix of the
// MXTI01 footer magic.
func isIndexPrefix(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	n := len(p)
	if n > len(indexMagic) {
		n = len(indexMagic)
	}
	return string(p[:n]) == indexMagic[:n]
}

// consumeFooter drains and parses the MXTI01 footer whose first 16
// bytes arrived in hdr (a chunk-header-sized read). footerOff is the
// footer's stream offset. It never fails: a truncated or corrupt footer
// leaves the decoder index-less — the chunk stream before it was
// already complete.
func (d *binV2Decoder) consumeFooter(hdr []byte, footerOff int64) {
	bodyLen := int64(binary.LittleEndian.Uint32(hdr[len(indexMagic) : len(indexMagic)+4]))
	// hdr slices the input's window and is invalidated by the next read:
	// keep the 4 body bytes it already holds before reading on.
	var first4 [4]byte
	copy(first4[:], hdr[len(indexMagic)+4:])
	if bodyLen < 4 || bodyLen > maxIndexFooterBytes {
		return
	}
	// The rest of the footer is the remaining body, the CRC and the
	// 16-byte trailer.
	rest, err := d.in.next(int(bodyLen) - 4 + 4 + indexTailBytes)
	if err != nil {
		return
	}
	body := make([]byte, bodyLen)
	copy(body, first4[:])
	copy(body[4:], rest[:bodyLen-4])
	wantCRC := binary.LittleEndian.Uint32(rest[bodyLen-4 : bodyLen])
	trailer := rest[bodyLen : bodyLen+indexTailBytes]
	if crc32.ChecksumIEEE(body) != wantCRC ||
		string(trailer[8:]) != indexTailMagic ||
		int64(binary.LittleEndian.Uint64(trailer[:8])) != footerOff {
		return
	}
	ix, perr := parseIndexBody(body, footerOff)
	if perr != nil {
		return
	}
	if d.idx == nil {
		d.idx = ix
	}
}

// decodeColumns reconstructs one chunk's records into dst[:count] and
// returns how many survived kind validation (compacting rejects away in
// skip mode). A returned *ParseError means undecodable column data — the
// caller decides between fatal and whole-chunk skip — except for bad
// kind labels outside skip mode, which also surface here.
func (d *binV2Decoder) decodeColumns(dst []trace.Ref, p []byte, count, addrBytes int, flags uint32) (int, *ParseError) {
	addrCol := p[:addrBytes]
	kindBytes := (count + 3) / 4
	kindCol := p[addrBytes : addrBytes+kindBytes]
	var sizeCol []byte
	if flags&v2FlagSizes != 0 {
		sizeCol = p[addrBytes+kindBytes : addrBytes+kindBytes+count]
	}

	// Address column: absolute first, zig-zag deltas after. The deltas of
	// real traces are overwhelmingly single-byte varints (strides within
	// ±63), so the loop peels that case before the general decoder.
	pos := 0
	var addr uint64
	for i := 0; i < count; i++ {
		var v uint64
		if pos < len(addrCol) && addrCol[pos] < 0x80 {
			v = uint64(addrCol[pos])
			pos++
		} else {
			var n int
			v, n = binary.Uvarint(addrCol[pos:])
			if n <= 0 {
				return 0, &ParseError{Format: "binaryv2",
					Reason: fmt.Sprintf("corrupt address column at record %d", i)}
			}
			pos += n
		}
		if i == 0 {
			addr = v
		} else {
			addr += uint64(unzigzag(v))
		}
		dst[i] = trace.Ref{Addr: addr}
	}
	if pos != addrBytes {
		return 0, &ParseError{Format: "binaryv2",
			Reason: fmt.Sprintf("address column length mismatch (%d of %d bytes decoded)", pos, addrBytes)}
	}

	// Kind column: 2 bits per record; padding bits of the last byte are
	// ignored. bad accumulates labels of 3, which no writer emits.
	bad := 0
	for i := 0; i < count; i++ {
		k := kindCol[i>>2] >> ((uint(i) & 3) * 2) & 3
		dst[i].Kind = trace.Kind(k)
		if k == 3 {
			bad++
		}
	}
	if sizeCol != nil {
		for i := 0; i < count; i++ {
			dst[i].Size = sizeCol[i]
		}
	}
	if bad == 0 {
		return count, nil
	}
	if !d.opts.SkipMalformed {
		for i := 0; i < count; i++ {
			if dst[i].Kind == 3 {
				return 0, &ParseError{Format: "binaryv2",
					Reason: fmt.Sprintf("bad kind label 3 in record %d of chunk", i)}
			}
		}
	}
	// Skip mode: compact the bad records away, counting each as a reject.
	w := 0
	for i := 0; i < count; i++ {
		if dst[i].Kind == 3 {
			continue
		}
		dst[w] = dst[i]
		w++
	}
	d.acc.reject(int64(count - w))
	return w, nil
}

// V2WriterOptions shapes WriteBinaryV2Options.
type V2WriterOptions struct {
	// SampleRate in (0, 1) thins the stream at transcode time with the
	// same SHARDS hash filter the sweep uses (granule IndexGranule,
	// Mix64, SampleThreshold): the stored artifact keeps only the
	// sampled granules, and the footer records rate, seed and granule so
	// sweeps rescale correctly and refuse conflicting re-sampling. 0 and
	// 1 store the stream exactly.
	SampleRate float64
	// SampleSeed seeds the sampling hash.
	SampleSeed uint64
	// NoIndex omits the MXTI01 footer (and with it the stats profile),
	// producing a bare chunk stream.
	NoIndex bool
}

// WriteBinaryV2 streams src to w in the mxt v2 columnar chunk format —
// with the MXTI01 index footer — and returns the record count. It
// preserves every trace.Ref bit-for-bit, in delta-encoded columns that
// decode a chunk at a time.
func WriteBinaryV2(w io.Writer, src trace.Source) (int64, error) {
	return WriteBinaryV2Options(w, src, V2WriterOptions{})
}

// WriteBinaryV2Options is WriteBinaryV2 with transcode-time sampling
// and index control. The returned count is the records written (after
// sampling).
func WriteBinaryV2Options(w io.Writer, src trace.Source, wo V2WriterOptions) (int64, error) {
	return writeBinaryV2(w, src, wo, nil)
}

// sampled reports whether the options thin the stream at transcode time.
func (wo V2WriterOptions) sampled() bool { return wo.SampleRate > 0 && wo.SampleRate < 1 }

// writeBinaryV2 is WriteBinaryV2Options with an optional source of the
// footer's stats profile: srcStats, when non-nil, is called once src is
// drained and must profile exactly the records written, in order. Without
// it the writer accumulates the profile itself.
func writeBinaryV2(w io.Writer, src trace.Source, wo V2WriterOptions, srcStats func() IngestStats) (int64, error) {
	if wo.SampleRate < 0 || wo.SampleRate > 1 || wo.SampleRate != wo.SampleRate {
		return 0, fmt.Errorf("extrace: sampling rate %g must be in [0, 1]", wo.SampleRate)
	}
	sampled := wo.sampled()
	var threshold uint64
	if sampled {
		threshold = SampleThreshold(wo.SampleRate)
	}

	bw := bufio.NewWriterSize(w, 64*1024)
	if _, err := bw.WriteString(binaryV2Magic); err != nil {
		return 0, fmt.Errorf("extrace: writing binary v2 magic: %w", err)
	}
	var (
		written int64
		source  int64
		batch   = make([]trace.Ref, 0, v2ChunkRecords)
		scratch []byte
		idxb    *indexBuilder
		wacc    *accumulator
	)
	if !wo.NoIndex {
		idxb = newIndexBuilder()
		if srcStats == nil {
			wacc = new(accumulator)
		}
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		scratch = appendV2Chunk(scratch[:0], batch)
		if _, err := bw.Write(scratch); err != nil {
			return fmt.Errorf("extrace: writing binary v2 chunk after %d records: %w", written, err)
		}
		if idxb != nil {
			idxb.addChunk(batch, len(scratch))
		}
		if wacc != nil {
			wacc.noteBlock(batch)
		}
		written += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return written, fmt.Errorf("extrace: reading source after %d records: %w", written+int64(len(batch)), err)
		}
		source++
		if sampled && Mix64((r.Addr/IndexGranule)^wo.SampleSeed) >= threshold {
			continue
		}
		batch = append(batch, r)
		if len(batch) == v2ChunkRecords {
			if err := flush(); err != nil {
				return written, err
			}
		}
	}
	if err := flush(); err != nil {
		return written, err
	}
	if idxb != nil {
		var st IngestStats
		if wacc != nil {
			st = wacc.snapshot()
		} else {
			st = srcStats()
		}
		profile := &IndexProfile{
			MinAddr:            st.MinAddr,
			MaxAddr:            st.MaxAddr,
			FootprintLines:     st.FootprintLines,
			FootprintSaturated: st.FootprintSaturated,
			Strides:            st.Strides,
			StrideOther:        st.StrideOther,
			SequentialFrac:     st.SequentialFrac,
		}
		footer := idxb.appendFooter(scratch[:0], source, sampled, wo.SampleRate, wo.SampleSeed, IndexGranule, profile)
		if _, err := bw.Write(footer); err != nil {
			return written, fmt.Errorf("extrace: writing binary v2 index footer: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("extrace: flushing binary v2 output: %w", err)
	}
	return written, nil
}

// appendV2Chunk encodes one chunk (header + payload) onto dst.
func appendV2Chunk(dst []byte, recs []trace.Ref) []byte {
	headerAt := len(dst)
	dst = append(dst, make([]byte, v2HeaderBytes)...)
	payloadAt := len(dst)

	// Address column.
	var tmp [v2MaxUvarint]byte
	prev := uint64(0)
	for i, r := range recs {
		var v uint64
		if i == 0 {
			v = r.Addr
		} else {
			v = zigzag(int64(r.Addr - prev))
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
		prev = r.Addr
	}
	addrBytes := len(dst) - payloadAt

	// Kind column, 2 bits per record, zero-padded.
	kindAt := len(dst)
	dst = append(dst, make([]byte, (len(recs)+3)/4)...)
	hasSizes := false
	for i, r := range recs {
		dst[kindAt+(i>>2)] |= byte(r.Kind&3) << ((uint(i) & 3) * 2)
		if r.Size != 0 {
			hasSizes = true
		}
	}

	flags := uint32(0)
	if hasSizes {
		flags |= v2FlagSizes
		for _, r := range recs {
			dst = append(dst, r.Size)
		}
	}

	h := dst[headerAt : headerAt+v2HeaderBytes]
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(recs)))
	binary.LittleEndian.PutUint32(h[4:8], flags)
	binary.LittleEndian.PutUint32(h[8:12], uint32(addrBytes))
	binary.LittleEndian.PutUint32(h[12:16], crc32.ChecksumIEEE(dst[payloadAt:]))
	return dst
}

// TranscodeV2 streams an external trace (din, mxt v1 or v2, gzip
// autodetected) from r into the mxt v2 columnar format on w, returning
// the record count and the ingest profile of the source. opts shapes the
// read side exactly as in NewReader; rejected records are dropped from
// the output.
func TranscodeV2(w io.Writer, r io.Reader, opts Options) (int64, IngestStats, error) {
	return TranscodeV2Options(w, r, opts, V2WriterOptions{})
}

// TranscodeV2Options is TranscodeV2 with transcode-time sampling. The
// returned count is the records written; the IngestStats describe the
// source stream (so Records there is the pre-sampling total). An input
// that is itself a transcode-sampled artifact is refused: re-encoding
// it would lose or conflict with its recorded sampling — transcode from
// the original source instead.
func TranscodeV2Options(w io.Writer, r io.Reader, opts Options, wo V2WriterOptions) (int64, IngestStats, error) {
	rd := NewReader(r, opts)
	defer rd.Close()
	// Unsampled, the written records are the reader's accepted records in
	// order, so its final stats are the footer profile: one accumulator
	// runs, not two.
	var st IngestStats
	haveStats := false
	srcStats := func() IngestStats {
		st, haveStats = rd.Stats(), true
		return st
	}
	if wo.sampled() {
		srcStats = nil
	}
	n, err := writeBinaryV2(w, rd.Source(), wo, srcStats)
	if !haveStats {
		st = rd.Stats()
	}
	if err == nil {
		if ix := rd.Index(); ix != nil && ix.Sampled {
			err = fmt.Errorf("extrace: input is already sampled at transcode time (rate %g, seed %d): refusing to re-encode it; transcode from the original source", ix.SampleRate, ix.SampleSeed)
		}
	}
	return n, st, err
}

// Source adapts the Reader to the one-record-at-a-time trace.Source
// interface — the shape WriteDin and WriteBinaryV2 consume — with a
// chunk buffer in between so the Reader's bulk path still applies.
func (r *Reader) Source() trace.Source {
	return &readerSource{rd: r, buf: make([]trace.Ref, v2ChunkRecords)}
}

type readerSource struct {
	rd   *Reader
	buf  []trace.Ref
	i, n int
	err  error
}

func (s *readerSource) Next() (trace.Ref, error) {
	for s.i >= s.n {
		if s.err != nil {
			return trace.Ref{}, s.err
		}
		n, err := s.rd.Read(s.buf)
		s.i, s.n, s.err = 0, n, err
	}
	r := s.buf[s.i]
	s.i++
	return r, nil
}
