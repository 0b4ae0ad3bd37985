package extrace

import (
	"bufio"
	"fmt"
	"io"

	"memexplore/internal/trace"
)

// binaryMagic opens every mxt binary trace. The "\r\n" tail catches
// text-mode newline mangling the way the PNG signature does.
const binaryMagic = "MXTB01\r\n"

// Binary record layout (after the magic), one record per reference:
//
//	byte 0    payload length n, 2 ≤ n ≤ 10
//	byte 1    kind label (0 read, 1 write, 2 ifetch)
//	byte 2    access size in bytes (0 = default 1)
//	bytes 3.. address, little-endian, trailing zero bytes trimmed (0–8)
//
// The length prefix makes records self-framing: a malformed-but-framed
// record (bad label) can be skipped, while a truncated record destroys
// framing and is always fatal. Clean EOF is only legal at a record
// boundary.
const (
	binMinRecord = 2  // kind + size, zero address bytes
	binMaxRecord = 10 // kind + size + 8 address bytes
)

// binDecoder streams the binary format.
type binDecoder struct {
	br   *bufio.Reader
	opts Options
	acc  *accumulator
	off  int64 // decompressed byte offset of the next record start
	buf  [binMaxRecord]byte
}

func (d *binDecoder) next() (trace.Ref, error) {
	for {
		recStart := d.off
		n, err := d.br.ReadByte()
		if err == io.EOF {
			return trace.Ref{}, io.EOF
		}
		if err != nil {
			return trace.Ref{}, fmt.Errorf("extrace: reading binary record: %w", err)
		}
		d.off++
		if int(n) < binMinRecord || int(n) > binMaxRecord {
			// The framing itself is broken; skipping is impossible.
			return trace.Ref{}, &ParseError{Format: "binary", Offset: recStart,
				Reason: fmt.Sprintf("bad record length %d (want %d..%d)", n, binMinRecord, binMaxRecord)}
		}
		p := d.buf[:n]
		if _, err := io.ReadFull(d.br, p); err != nil {
			return trace.Ref{}, &ParseError{Format: "binary", Offset: recStart, Err: err,
				Reason: fmt.Sprintf("truncated record: want %d payload bytes: %v", n, err)}
		}
		d.off += int64(n)
		if p[0] > 2 {
			if d.opts.SkipMalformed {
				d.acc.reject(1)
				continue
			}
			return trace.Ref{}, &ParseError{Format: "binary", Offset: recStart,
				Reason: fmt.Sprintf("bad kind label %d (want 0, 1 or 2)", p[0])}
		}
		var addr uint64
		for i, b := range p[2:] {
			addr |= uint64(b) << (8 * i)
		}
		return trace.Ref{Addr: addr, Kind: trace.Kind(p[0]), Size: p[1]}, nil
	}
}
