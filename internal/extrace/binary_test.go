package extrace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"

	"memexplore/internal/trace"
)

// writeBinaryV1 encodes src in the mxt v1 format, which the reader
// accepts but the package no longer writes, and returns the record count.
func writeBinaryV1(w io.Writer, src trace.Source) (int64, error) {
	out := []byte(binaryMagic)
	var n int64
	for {
		r, err := src.Next()
		if err == io.EOF {
			_, err = w.Write(out)
			return n, err
		}
		if err != nil {
			return n, err
		}
		rec := []byte{binMinRecord, byte(r.Kind), r.Size}
		for a := r.Addr; a != 0; a >>= 8 {
			rec = append(rec, byte(a))
			rec[0]++
		}
		out = append(out, rec...)
		n++
	}
}

func binRefs() []trace.Ref {
	return []trace.Ref{
		{Addr: 0, Kind: trace.Read},
		{Addr: 0x7f, Kind: trace.Write, Size: 4},
		{Addr: 0xdeadbeef, Kind: trace.Fetch, Size: 8},
		{Addr: ^uint64(0), Kind: trace.Read, Size: 2},
		{Addr: 0x100, Kind: trace.Write},
	}
}

func TestWriteBinaryRoundTripExact(t *testing.T) {
	in := binRefs()
	var buf bytes.Buffer
	n, err := writeBinaryV1(&buf, trace.FromRefs(in).Reader())
	if err != nil || n != int64(len(in)) {
		t.Fatalf("writeBinaryV1 = %d, %v", n, err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	got := readAll(t, r)
	if len(got) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("record %d = %+v, want %+v (binary must be bit-exact)", i, got[i], in[i])
		}
	}
	if st := r.Stats(); st.Format != "binary" || st.Gzip {
		t.Errorf("format = %q gzip=%v, want binary/false", st.Format, st.Gzip)
	}
}

func TestBinaryGzipAutodetect(t *testing.T) {
	var plain bytes.Buffer
	if _, err := writeBinaryV1(&plain, trace.FromRefs(binRefs()).Reader()); err != nil {
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
	if st := r.Stats(); st.Format != "binary" || !st.Gzip {
		t.Errorf("format = %q gzip=%v, want binary/true", st.Format, st.Gzip)
	}
}

func TestBinaryTruncatedRecordIsFatal(t *testing.T) {
	var buf bytes.Buffer
	writeBinaryV1(&buf, trace.FromRefs(binRefs()).Reader())
	cut := buf.Bytes()[:buf.Len()-2] // chop mid-record
	// Even in skip mode a truncated record destroys framing.
	r := NewReader(bytes.NewReader(cut), Options{SkipMalformed: true})
	var perr *ParseError
	var got int
	buf2 := make([]trace.Ref, 16)
	for {
		n, err := r.Read(buf2)
		got += n
		if err == nil {
			continue
		}
		if !errors.As(err, &perr) {
			t.Fatalf("err = %v, want *ParseError", err)
		}
		break
	}
	if got != len(binRefs())-1 {
		t.Errorf("read %d records before truncation, want %d", got, len(binRefs())-1)
	}
	if perr.Format != "binary" || perr.Line != 0 || perr.Offset == 0 {
		t.Errorf("parse error position = %+v", perr)
	}
}

func TestBinaryBadKindSkippable(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.Write([]byte{3, 9, 0, 0x10}) // framed record with kind 9
	buf.Write([]byte{3, 0, 0, 0x20}) // good read of 0x20
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{SkipMalformed: true})
	got := readAll(t, r)
	if len(got) != 1 || got[0].Addr != 0x20 {
		t.Fatalf("got %+v, want the one good record", got)
	}
	if st := r.Stats(); st.Rejects != 1 {
		t.Errorf("rejects = %d, want 1", st.Rejects)
	}

	// Fail mode reports the offset of the bad record (right after magic).
	r = NewReader(bytes.NewReader(buf.Bytes()), Options{})
	_, err := r.Read(make([]trace.Ref, 4))
	var perr *ParseError
	if !errors.As(err, &perr) || perr.Offset != int64(len(binaryMagic)) {
		t.Fatalf("err = %v, want *ParseError at offset %d", err, len(binaryMagic))
	}
}

func TestBinaryBadLengthFatal(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.Write([]byte{11, 0, 0}) // length out of range
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{SkipMalformed: true})
	_, err := r.Read(make([]trace.Ref, 4))
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *ParseError even in skip mode", err)
	}
}

func TestBinaryMaxRecords(t *testing.T) {
	var buf bytes.Buffer
	writeBinaryV1(&buf, trace.FromRefs(binRefs()).Reader())
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{MaxRecords: 2})
	var total int
	chunk := make([]trace.Ref, 16)
	n, err := r.Read(chunk)
	total += n
	if !errors.Is(err, ErrRecordLimit) || total != 2 {
		t.Fatalf("n=%d err=%v, want 2 records then ErrRecordLimit", total, err)
	}
}

// TestWriteBinaryEOFBoundary checks that clean EOF is only reported at a
// record boundary and io.EOF after the final record.
func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	n, err := writeBinaryV1(&buf, trace.New(0).Reader())
	if err != nil || n != 0 {
		t.Fatalf("writeBinaryV1 empty = %d, %v", n, err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	rn, rerr := r.Read(make([]trace.Ref, 4))
	if rn != 0 || rerr != io.EOF {
		t.Fatalf("empty binary trace: n=%d err=%v", rn, rerr)
	}
	if st := r.Stats(); st.Format != "binary" {
		t.Errorf("format = %q", st.Format)
	}
}
