package trace_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
	"testing/quick"

	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// readDin reads din output back through extrace, the din parser every
// consumer uses.
func readDin(r io.Reader) (*trace.Trace, error) {
	rd := extrace.NewReader(r, extrace.Options{})
	defer rd.Close()
	tr := trace.New(0)
	buf := make([]trace.Ref, 256)
	for {
		n, err := rd.Read(buf)
		for _, ref := range buf[:n] {
			tr.Append(ref)
		}
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func TestDinRoundTrip(t *testing.T) {
	tr := trace.FromRefs([]trace.Ref{
		{Addr: 0x0, Kind: trace.Read},
		{Addr: 0xdeadbeef, Kind: trace.Write},
		{Addr: 0x42, Kind: trace.Fetch},
	})
	var buf bytes.Buffer
	if _, err := extrace.WriteDin(&buf, tr.Reader()); err != nil {
		t.Fatalf("WriteDin: %v", err)
	}
	got, err := readDin(&buf)
	if err != nil {
		t.Fatalf("reading din: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if got.At(i) != tr.At(i) {
			t.Errorf("ref %d = %+v, want %+v", i, got.At(i), tr.At(i))
		}
	}
}

// Property: din serialization round-trips arbitrary address/kind pairs.
func TestQuickDinRoundTrip(t *testing.T) {
	f := func(addrs []uint64, kinds []uint8) bool {
		tr := trace.New(len(addrs))
		for i, a := range addrs {
			k := trace.Read
			if len(kinds) > 0 {
				k = trace.Kind(kinds[i%len(kinds)] % 3)
			}
			tr.Append(trace.Ref{Addr: a, Kind: k})
		}
		var buf bytes.Buffer
		if _, err := extrace.WriteDin(&buf, tr.Reader()); err != nil {
			return false
		}
		got, err := readDin(&buf)
		if err != nil || got.Len() != tr.Len() {
			return false
		}
		for i := 0; i < tr.Len(); i++ {
			if got.At(i) != tr.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDinGzRoundTrip(t *testing.T) {
	tr := trace.Sequential(0, 200, 3)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := extrace.WriteDin(zw, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || buf.Bytes()[0] != 0x1f {
		t.Fatalf("not gzip output: % x", buf.Bytes()[:2])
	}
	got, err := readDin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if got.At(i) != tr.At(i) {
			t.Fatalf("ref %d differs", i)
		}
	}
}
