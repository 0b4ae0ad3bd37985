package extrace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"testing"

	"memexplore/internal/trace"
)

// readAll drains a Reader in small chunks and returns the records.
func readAll(t *testing.T, r *Reader) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	buf := make([]trace.Ref, 3)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
}

func TestReadDinBasic(t *testing.T) {
	src := "# header comment\n\n \t# indented comment\n  \t\n0 10\n1 ff 4\n2 0xDEADbeef\n0 0\n"
	r := NewReader(strings.NewReader(src), Options{})
	got := readAll(t, r)
	want := []trace.Ref{
		{Addr: 0x10, Kind: trace.Read},
		{Addr: 0xff, Kind: trace.Write, Size: 4},
		{Addr: 0xdeadbeef, Kind: trace.Fetch},
		{Addr: 0, Kind: trace.Read},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := r.Stats()
	if st.Format != "din" || st.Gzip {
		t.Errorf("format = %q gzip=%v, want din/false", st.Format, st.Gzip)
	}
	if st.Records != 4 || st.Reads != 2 || st.Writes != 1 || st.Fetches != 1 {
		t.Errorf("mix = %+v", st)
	}
	if st.BytesRead != int64(len(src)) {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, len(src))
	}
	if st.MinAddr != 0 || st.MaxAddr != 0xdeadbeef+0 {
		t.Errorf("addr range [%#x, %#x]", st.MinAddr, st.MaxAddr)
	}
}

func TestReadDinCRLFAndFinalUnterminatedLine(t *testing.T) {
	r := NewReader(strings.NewReader("0 1\r\n1 2"), Options{})
	got := readAll(t, r)
	if len(got) != 2 || got[0].Addr != 1 || got[1].Addr != 2 || got[1].Kind != trace.Write {
		t.Fatalf("got %+v", got)
	}
}

func TestReadDinMalformedCarriesLineAndOffset(t *testing.T) {
	src := "0 10\n0 11\nbogus line\n0 12\n"
	r := NewReader(strings.NewReader(src), Options{})
	buf := make([]trace.Ref, 16)
	n, err := r.Read(buf)
	if n != 2 {
		t.Fatalf("read %d records before the error, want 2", n)
	}
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("error %v (%T), want *ParseError", err, err)
	}
	if perr.Line != 3 {
		t.Errorf("Line = %d, want 3", perr.Line)
	}
	if wantOff := int64(len("0 10\n0 11\n")); perr.Offset != wantOff {
		t.Errorf("Offset = %d, want %d", perr.Offset, wantOff)
	}
	if !strings.Contains(perr.Error(), "line 3") {
		t.Errorf("message %q does not name the line", perr.Error())
	}
	// The error is sticky.
	if _, err2 := r.Read(buf); !errors.As(err2, &perr) {
		t.Errorf("second Read = %v, want the sticky parse error", err2)
	}
}

func TestReadDinMalformedVariants(t *testing.T) {
	for _, bad := range []string{
		"3 10\n",                // label out of range
		"x 10\n",                // non-numeric label
		"0\n",                   // missing address
		"0 zz\n",                // bad hex
		"0 10 0\n",              // zero size
		"0 10 999\n",            // size out of range
		"0 10 4 extra\n",        // too many fields
		"0 11112222333344445\n", // >16 hex digits
	} {
		r := NewReader(strings.NewReader(bad), Options{})
		_, err := r.Read(make([]trace.Ref, 4))
		var perr *ParseError
		if !errors.As(err, &perr) {
			t.Errorf("input %q: error %v, want *ParseError", bad, err)
		}
	}
}

func TestReadDinSkipMalformed(t *testing.T) {
	src := "0 10\nbogus\n9 9\n1 20\n0 zz\n"
	r := NewReader(strings.NewReader(src), Options{SkipMalformed: true})
	got := readAll(t, r)
	if len(got) != 2 || got[0].Addr != 0x10 || got[1].Addr != 0x20 {
		t.Fatalf("got %+v, want the two good records", got)
	}
	if st := r.Stats(); st.Rejects != 3 || st.Records != 2 {
		t.Errorf("records=%d rejects=%d, want 2/3", st.Records, st.Rejects)
	}
}

func TestReadDinLineTooLong(t *testing.T) {
	long := "0 " + strings.Repeat("1", 100) + "\n0 10\n"
	r := NewReader(strings.NewReader(long), Options{MaxLineBytes: 64})
	_, err := r.Read(make([]trace.Ref, 4))
	var perr *ParseError
	if !errors.As(err, &perr) || !strings.Contains(perr.Reason, "exceeds 64 bytes") {
		t.Fatalf("error %v, want line-too-long parse error", err)
	}

	// In skip mode the oversized line is drained and parsing resumes on
	// the next line with correct numbering.
	r = NewReader(strings.NewReader(long+"bogus\n"), Options{MaxLineBytes: 64, SkipMalformed: true})
	buf := make([]trace.Ref, 4)
	n, _ := r.Read(buf)
	if n != 1 || buf[0].Addr != 0x10 {
		t.Fatalf("skip mode read %d records (%+v), want the one good record", n, buf[:n])
	}
	if st := r.Stats(); st.Rejects != 2 {
		t.Errorf("rejects = %d, want 2", st.Rejects)
	}
}

func TestReadMaxRecords(t *testing.T) {
	src := "0 1\n0 2\n0 3\n"
	r := NewReader(strings.NewReader(src), Options{MaxRecords: 2})
	buf := make([]trace.Ref, 8)
	n, err := r.Read(buf)
	if n != 2 {
		t.Fatalf("read %d records before the limit, want 2", n)
	}
	if !errors.Is(err, ErrRecordLimit) {
		t.Fatalf("error %v, want ErrRecordLimit", err)
	}
	// Exactly at the limit is fine.
	r = NewReader(strings.NewReader(src), Options{MaxRecords: 3})
	if got := readAll(t, r); len(got) != 3 {
		t.Fatalf("limit==len: got %d records", len(got))
	}
}

func TestReadGzipAutodetect(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	io.WriteString(gz, "0 10\n1 20\n")
	gz.Close()
	wire := buf.Len()
	r := NewReader(bytes.NewReader(buf.Bytes()), Options{})
	got := readAll(t, r)
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	st := r.Stats()
	if !st.Gzip || st.Format != "din" {
		t.Errorf("format=%q gzip=%v, want din/true", st.Format, st.Gzip)
	}
	if st.BytesRead != int64(wire) {
		t.Errorf("BytesRead = %d, want the %d wire bytes", st.BytesRead, wire)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestReadGzipCorrupt(t *testing.T) {
	r := NewReader(strings.NewReader("\x1f\x8bnot really gzip"), Options{})
	if _, err := r.Read(make([]trace.Ref, 1)); err == nil || err == io.EOF {
		t.Fatalf("corrupt gzip: err = %v, want a real error", err)
	}
}

func TestEmptyInput(t *testing.T) {
	r := NewReader(strings.NewReader(""), Options{})
	n, err := r.Read(make([]trace.Ref, 4))
	if n != 0 || err != io.EOF {
		t.Fatalf("empty input: n=%d err=%v, want 0/io.EOF", n, err)
	}
	if st := r.Stats(); st.Records != 0 {
		t.Errorf("records = %d", st.Records)
	}
}

func TestWriteDinRoundTrip(t *testing.T) {
	in := []trace.Ref{
		{Addr: 0, Kind: trace.Read},
		{Addr: 0xdeadbeef, Kind: trace.Write, Size: 4},
		{Addr: 1 << 40, Kind: trace.Fetch, Size: 8},
		{Addr: 7, Kind: trace.Read, Size: 1},
	}
	var buf bytes.Buffer
	n, err := WriteDin(&buf, trace.FromRefs(in).Reader())
	if err != nil || n != int64(len(in)) {
		t.Fatalf("WriteDin = %d, %v", n, err)
	}
	got := readAll(t, NewReader(&buf, Options{}))
	if len(got) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].Addr != in[i].Addr || got[i].Kind != in[i].Kind ||
			got[i].EffectiveSize() != in[i].EffectiveSize() {
			t.Errorf("record %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestIngestStatsStrides(t *testing.T) {
	var sb strings.Builder
	tr := trace.New(0)
	for i := 0; i < 100; i++ {
		tr.Append(trace.Ref{Addr: uint64(4 * i), Kind: trace.Read, Size: 4})
	}
	if _, err := WriteDin(&sb, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(sb.String()), Options{})
	readAll(t, r)
	st := r.Stats()
	if st.Strides[4] != 99 {
		t.Errorf("stride-4 count = %d, want 99", st.Strides[4])
	}
	if st.SequentialFrac != 1 {
		t.Errorf("SequentialFrac = %g, want 1", st.SequentialFrac)
	}
	// 100 word accesses cover 400 bytes = ceil into 64-byte granules.
	if st.FootprintLines != 7 {
		t.Errorf("FootprintLines = %d, want 7", st.FootprintLines)
	}
	if st.String() == "" {
		t.Error("String() should render")
	}
}
