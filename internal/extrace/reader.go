package extrace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"

	"memexplore/internal/trace"
)

// countReader counts the wire bytes consumed from the underlying reader —
// for gzip input, the compressed bytes.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decoder yields one record at a time from a concrete format.
type decoder interface {
	// next returns the next accepted record. Malformed records are skipped
	// internally under Options.SkipMalformed (counting rejects via the
	// shared accumulator); otherwise next returns a *ParseError. A clean
	// end of stream is io.EOF.
	next() (trace.Ref, error)
}

// chunkDecoder decodes whole chunks at once into the caller's buffer —
// the columnar v2 fast path. Implementations follow the same malformed-
// record contract as decoder; they must never report records together
// with an error.
type chunkDecoder interface {
	readChunk(buf []trace.Ref) (int, error)
}

// Reader streams an external trace as chunks of trace.Ref. It never holds
// more than one buffered chunk of input: memory use is bounded by the
// format buffers plus the footprint-bounded ingest statistics, never by
// the trace length. Create with NewReader; it is not safe for concurrent
// use.
type Reader struct {
	opts Options
	raw  *countReader
	gz   *gzip.Reader // non-nil when the stream was gzip-compressed
	dec  decoder
	cdec chunkDecoder // non-nil for chunk-at-a-time formats (mxt v2)
	acc  *accumulator

	// policy, when set before the first Read, lets the v2 decoder skip
	// whole indexed chunks (see SetChunkPolicy).
	policy ChunkPolicy

	format  string
	gzipped bool
	started bool
	err     error // sticky terminal state (io.EOF or a real error)
}

// NewReader wraps r for streaming ingestion. Format detection (gzip, then
// binary-vs-din) happens lazily on the first Read, so construction never
// fails and never touches r.
func NewReader(r io.Reader, opts Options) *Reader {
	return &Reader{
		opts: opts,
		raw:  &countReader{r: r},
		acc:  newAccumulator(),
	}
}

// start peeks at the stream and picks the decompressor and decoder.
func (r *Reader) start() error {
	r.started = true
	br := bufio.NewReaderSize(r.raw, 32*1024)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("extrace: opening gzip stream: %w", err)
		}
		r.gz = gz
		r.gzipped = true
		br = bufio.NewReaderSize(gz, 32*1024)
	}
	if magic, err := br.Peek(len(binaryMagic)); err == nil && string(magic) == binaryMagic {
		br.Discard(len(binaryMagic))
		r.format = "binary"
		r.dec = &binDecoder{br: br, opts: r.opts, acc: r.acc, off: int64(len(binaryMagic))}
		return nil
	}
	if magic, err := br.Peek(len(binaryV2Magic)); err == nil && string(magic) == binaryV2Magic {
		br.Discard(len(binaryV2Magic))
		r.format = "binaryv2"
		dec := &binV2Decoder{in: &streamInput{br: br}, opts: r.opts, acc: r.acc, off: int64(len(binaryV2Magic))}
		// A seekable, uncompressed source (a file, a bytes.Reader)
		// preloads the index with one ReadAt from the tail and skips
		// chunks by discarding; gzip and pipes only discover the footer
		// when the stream reaches it.
		if !r.gzipped {
			if ra, ok := r.raw.r.(io.ReaderAt); ok {
				if size, err := seekableSize(r.raw.r); err == nil {
					dec.idx = probeIndex(ra, size)
				}
			}
		}
		r.attachPolicy(dec)
		r.cdec = dec
		return nil
	}
	r.format = "din"
	// The line buffer must hold a full line to detect its newline; cap it
	// at the line limit so an endless line fails fast instead of growing.
	r.dec = &dinDecoder{br: bufio.NewReaderSize(br, r.opts.maxLine()), opts: r.opts, acc: r.acc}
	return nil
}

// seekableSize reads the total size of a seekable stream and restores
// its offset (ReadAt-based index probing needs the absolute tail
// position).
func seekableSize(r io.Reader) (int64, error) {
	sk, ok := r.(io.Seeker)
	if !ok {
		return 0, fmt.Errorf("extrace: source is not seekable")
	}
	cur, err := sk.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	end, err := sk.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := sk.Seek(cur, io.SeekStart); err != nil {
		return 0, err
	}
	return end, nil
}

// attachPolicy arms index-guided chunk skipping on a v2 decoder when
// every precondition holds: a policy was set, the index is present and
// carries the encode-time stats profile (without it the skipped-chunk
// statistics could not be reconstructed), and no record limit is in
// force (skipping would jump the limit accounting).
func (r *Reader) attachPolicy(dec *binV2Decoder) {
	if r.policy != nil && dec.idx != nil && dec.idx.HasProfile && r.opts.MaxRecords == 0 {
		dec.policy = r.policy
	}
}

// SetChunkPolicy installs the per-chunk skip policy consulted against
// the MXTI01 index. It must be called before the first Read; it has no
// effect on non-v2 formats, index-less streams, or readers with a
// record limit. The policy runs on the decoding goroutine (the
// pipeline's producer): it must be pure and must not touch state that
// changes during the stream.
func (r *Reader) SetChunkPolicy(p ChunkPolicy) {
	r.policy = p
}

// Index returns the parsed MXTI01 index footer, or nil when the stream
// has none (or it has not been reached yet: on non-seekable sources the
// footer is only discovered at end of stream).
func (r *Reader) Index() *TraceIndex {
	if d, ok := r.cdec.(*binV2Decoder); ok {
		return d.idx
	}
	return nil
}

// SkipSummary reports the chunks stepped over under the chunk policy so
// far. Callers that fan decoding out to a producer goroutine must read
// it only after joining the producer.
func (r *Reader) SkipSummary() SkipSummary {
	if d, ok := r.cdec.(*binV2Decoder); ok {
		return d.skip
	}
	return SkipSummary{}
}

// Read fills buf with the next records of the trace and reports how many
// it read. Like io.Reader, it may return n > 0 together with a non-nil
// error (including io.EOF at the end of the trace): callers must process
// the n records before acting on the error. Errors are terminal.
func (r *Reader) Read(buf []trace.Ref) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if !r.started {
		if err := r.start(); err != nil {
			r.err = err
			return 0, err
		}
	}
	if r.cdec != nil {
		return r.readChunked(buf)
	}
	n := 0
	for n < len(buf) {
		ref, err := r.dec.next()
		if err != nil {
			r.err = err
			return n, err
		}
		if r.opts.MaxRecords > 0 && r.acc.st.Records >= r.opts.MaxRecords {
			r.err = fmt.Errorf("%w (%d)", ErrRecordLimit, r.opts.MaxRecords)
			return n, r.err
		}
		r.acc.note(ref)
		buf[n] = ref
		n++
	}
	return n, nil
}

// readChunked is Read for chunk-at-a-time decoders: whole chunks land
// directly in buf (the pipeline's pooled slabs) and are accounted in one
// noteBlock per chunk. Stats accumulate strictly after the decoder's
// malformed-record rejection, preserving the IngestStats invariant that
// rejected records never count — same contract, fewer per-record calls.
func (r *Reader) readChunked(buf []trace.Ref) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.cdec.readChunk(buf[n:])
		if m > 0 && r.opts.MaxRecords > 0 && r.acc.st.Records+int64(m) > r.opts.MaxRecords {
			// The limit falls inside this chunk: accept records up to it
			// (matching the per-record path, which notes exactly MaxRecords
			// before failing on the next decode), then fail.
			keep := int(r.opts.MaxRecords - r.acc.st.Records)
			r.acc.noteBlock(buf[n : n+keep])
			n += keep
			r.err = fmt.Errorf("%w (%d)", ErrRecordLimit, r.opts.MaxRecords)
			return n, r.err
		}
		r.acc.noteBlock(buf[n : n+m])
		n += m
		if err != nil {
			r.err = err
			return n, err
		}
	}
	return n, nil
}

// Stats snapshots the ingest statistics accumulated so far. When
// chunks were skipped via the index, the profile fields a skipping
// reader cannot reconstruct (address range, footprint, strides,
// sequential fraction) are substituted from the footer's encode-time
// profile once the stream has ended cleanly — by construction the
// profile a full decode of the same stream would have accumulated.
func (r *Reader) Stats() IngestStats {
	st := r.acc.snapshot()
	st.Format = r.format
	st.Gzip = r.gzipped
	st.BytesRead = r.raw.n
	if d, ok := r.cdec.(*binV2Decoder); ok {
		if r.err == io.EOF && d.skip.Chunks > 0 && d.idx != nil && d.idx.HasProfile {
			d.idx.applyProfile(&st)
		}
		if d.idx != nil && d.idx.Sampled {
			st.StoredSampleRate = d.idx.SampleRate
			st.StoredSampleSeed = d.idx.SampleSeed
			st.StoredSourceRecords = d.idx.SourceRecords
		}
	}
	return st
}

// Close releases the decompressor, if any. It does not close the
// underlying reader, which the caller owns.
func (r *Reader) Close() error {
	if r.gz != nil {
		return r.gz.Close()
	}
	return nil
}

// --- textual din decoding ---------------------------------------------

// dinDecoder parses the line-oriented din format: "<label> <hexaddr>"
// with an optional decimal size third field, '#' comments and blank
// lines. See docs/TRACE_FORMAT.md.
type dinDecoder struct {
	br   *bufio.Reader
	opts Options
	acc  *accumulator
	line int64
	off  int64 // decompressed byte offset of the next line start
}

func (d *dinDecoder) next() (trace.Ref, error) {
	for {
		lineStart := d.off
		d.line++
		s, err := d.readLine()
		if err == errLineTooLong {
			if perr := d.malformed(lineStart, fmt.Sprintf("line exceeds %d bytes", d.opts.maxLine())); perr != nil {
				return trace.Ref{}, perr
			}
			continue
		}
		if err == io.EOF && len(s) == 0 {
			return trace.Ref{}, io.EOF
		}
		if err != nil && err != io.EOF {
			return trace.Ref{}, fmt.Errorf("extrace: reading din line %d: %w", d.line, err)
		}
		ref, skip, reason := parseDinLine(s)
		if reason != "" {
			if perr := d.malformed(lineStart, reason); perr != nil {
				return trace.Ref{}, perr
			}
			continue
		}
		if skip {
			continue
		}
		return ref, nil
	}
}

// malformed counts a reject in skip mode or builds the fatal *ParseError.
func (d *dinDecoder) malformed(offset int64, reason string) error {
	if d.opts.SkipMalformed {
		d.acc.reject(1)
		return nil
	}
	return &ParseError{Format: "din", Line: d.line, Offset: offset, Reason: reason}
}

// errLineTooLong is the internal signal for a line over the limit; the
// oversized line has been consumed when it is returned.
var errLineTooLong = fmt.Errorf("extrace: line too long")

// readLine returns the next line without its terminator and advances the
// offset past it. A line over the limit is drained and reported as
// errLineTooLong (the decoder's buffer is at least MaxLineBytes, so
// bufio.ErrBufferFull always means an oversized line). io.EOF with a
// non-empty slice is a final unterminated line; with an empty slice, the
// end of the stream.
func (d *dinDecoder) readLine() ([]byte, error) {
	s, err := d.br.ReadSlice('\n')
	d.off += int64(len(s))
	if (err == nil || err == io.EOF) && len(s) > d.opts.maxLine() {
		return nil, errLineTooLong
	}
	switch err {
	case nil:
		return trimEOL(s), nil
	case bufio.ErrBufferFull:
		// Drain the rest of the oversized line.
		for err == bufio.ErrBufferFull {
			s, err = d.br.ReadSlice('\n')
			d.off += int64(len(s))
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		return nil, errLineTooLong
	case io.EOF:
		return trimEOL(s), io.EOF
	default:
		return nil, err
	}
}

// trimEOL strips a trailing "\n" or "\r\n".
func trimEOL(s []byte) []byte {
	if n := len(s); n > 0 && s[n-1] == '\n' {
		s = s[:n-1]
	}
	if n := len(s); n > 0 && s[n-1] == '\r' {
		s = s[:n-1]
	}
	return s
}

// parseDinLine parses one din line. skip is true for blank and comment
// lines; a non-empty reason marks the line malformed.
func parseDinLine(s []byte) (ref trace.Ref, skip bool, reason string) {
	var fields [4][]byte
	nf := splitFields(s, &fields)
	if nf == 0 {
		return trace.Ref{}, true, ""
	}
	if fields[0][0] == '#' {
		return trace.Ref{}, true, ""
	}
	if nf < 2 {
		return trace.Ref{}, false, fmt.Sprintf("want \"<label> <hexaddr>\", got %q", s)
	}
	if nf > 3 {
		return trace.Ref{}, false, fmt.Sprintf("too many fields (%d, want 2 or 3)", nf)
	}
	label, ok := parseDecimal(fields[0], 2)
	if !ok {
		return trace.Ref{}, false, fmt.Sprintf("bad label %q (want 0, 1 or 2)", fields[0])
	}
	addr, ok := parseHex(fields[1])
	if !ok {
		return trace.Ref{}, false, fmt.Sprintf("bad hex address %q", fields[1])
	}
	ref = trace.Ref{Addr: addr, Kind: trace.Kind(label)}
	if nf == 3 {
		size, ok := parseDecimal(fields[2], 255)
		if !ok || size == 0 {
			return trace.Ref{}, false, fmt.Sprintf("bad access size %q (want 1..255)", fields[2])
		}
		ref.Size = uint8(size)
	}
	return ref, false, ""
}

// splitFields splits on runs of spaces and tabs into the caller's fixed
// array — allocation-free on the hot path — and returns the field count.
// Splitting stops after filling the array, so a count of len(fields)
// means "len(fields) or more".
func splitFields(s []byte, fields *[4][]byte) int {
	n, i := 0, 0
	for i < len(s) && n < len(fields) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		for i < len(s) && s[i] != ' ' && s[i] != '\t' {
			i++
		}
		fields[n] = s[start:i]
		n++
	}
	return n
}

// parseDecimal parses a small non-negative decimal with an inclusive cap.
func parseDecimal(s []byte, max uint64) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > max {
			return 0, false
		}
	}
	return v, true
}

// parseHex parses a hexadecimal address with an optional 0x/0X prefix.
func parseHex(s []byte) (uint64, bool) {
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
