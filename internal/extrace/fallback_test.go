package extrace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memexplore/internal/trace"
)

// fallbackRefs builds a multi-chunk phase-local trace so the index has
// several entries and a chunk policy would have something to skip — the
// point of the fallback tests is that on transports without an up-front
// index it cleanly does not.
func fallbackRefs() []trace.Ref {
	refs := make([]trace.Ref, 3*v2ChunkRecords+100)
	for i := range refs {
		base := uint64(1+(i/v2ChunkRecords)) << 20
		refs[i] = trace.Ref{Addr: base + uint64(i%16)*64, Kind: trace.Kind(i % 3)}
	}
	return refs
}

// skipEverything is a chunk policy that skips every chunk; attaching it
// proves whether the policy machinery was armed at all on a given
// transport.
func skipEverything(e *ChunkIndexEntry) bool { return true }

// TestMmapFallbackGzip: a gzipped v2 artifact opened as *os.File (whose
// bytes are not the v2 stream) must stream-decode through the gzip
// layer and still surface the index at end of stream — while an
// attached chunk policy stays dormant (the index is only discovered at
// EOF, too late to skip).
func TestMmapFallbackGzip(t *testing.T) {
	in := fallbackRefs()
	var plain bytes.Buffer
	if _, err := WriteBinaryV2(&plain, trace.FromRefs(in).Reader()); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(plain.Bytes())
	zw.Close()
	path := filepath.Join(t.TempDir(), "trace.mxt.gz")
	if err := os.WriteFile(path, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	r := NewReader(f, Options{})
	r.SetChunkPolicy(skipEverything)
	got := readAll(t, r)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("gzip fallback decoded %d records, want %d bit-exact", len(got), len(in))
	}
	st := r.Stats()
	if !st.Gzip || st.Format != "binaryv2" {
		t.Errorf("format = %q gzip=%v, want binaryv2/true", st.Format, st.Gzip)
	}
	if st.ChunksSkipped != 0 {
		t.Errorf("gzip transport skipped %d chunks; skipping must be disabled without an up-front index", st.ChunksSkipped)
	}
	if ix := r.Index(); ix == nil || ix.Records != int64(len(in)) {
		t.Errorf("index not recovered from the gzip stream at EOF: %+v", ix)
	}
}

// nonSeekable hides every optional interface of the wrapped reader —
// exactly what stdin, a pipe, or an HTTP response body looks like to the
// transport probes.
type nonSeekable struct{ r io.Reader }

func (n nonSeekable) Read(p []byte) (int, error) { return n.r.Read(p) }

// TestMmapFallbackNonSeekable: a bare io.Reader (no ReaderAt, no Seeker,
// no Stat) must stream-decode an indexed v2 artifact identically, with
// no skipping, and the index recovered at EOF.
func TestMmapFallbackNonSeekable(t *testing.T) {
	in := fallbackRefs()
	var buf bytes.Buffer
	if _, err := WriteBinaryV2(&buf, trace.FromRefs(in).Reader()); err != nil {
		t.Fatal(err)
	}

	r := NewReader(nonSeekable{bytes.NewReader(buf.Bytes())}, Options{})
	r.SetChunkPolicy(skipEverything)
	got := readAll(t, r)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("non-seekable fallback decoded %d records, want %d bit-exact", len(got), len(in))
	}
	st := r.Stats()
	if st.ChunksSkipped != 0 {
		t.Errorf("non-seekable transport skipped %d chunks, want 0", st.ChunksSkipped)
	}
	if st.BytesRead != int64(buf.Len()) {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, buf.Len())
	}
	if ix := r.Index(); ix == nil || ix.Records != int64(len(in)) {
		t.Errorf("index not recovered from the non-seekable stream at EOF: %+v", ix)
	}
}

// TestIndexedFileSkips: the positive control — the same artifact as a
// plain on-disk file preloads its index through io.ReaderAt, skips under
// the policy, and reports every file byte read, skipped chunks included.
func TestIndexedFileSkips(t *testing.T) {
	in := fallbackRefs()
	var buf bytes.Buffer
	if _, err := WriteBinaryV2(&buf, trace.FromRefs(in).Reader()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.mxt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	r := NewReader(f, Options{})
	r.SetChunkPolicy(skipEverything)
	got := readAll(t, r)
	if len(got) != 0 {
		t.Fatalf("skip-everything policy on an indexed file decoded %d records, want 0", len(got))
	}
	st := r.Stats()
	if st.ChunksSkipped == 0 || st.Records != int64(len(in)) {
		t.Errorf("skipped=%d records=%d, want >0 skipped and %d records accounted", st.ChunksSkipped, st.Records, len(in))
	}
	if st.BytesRead != int64(buf.Len()) {
		t.Errorf("BytesRead = %d, want file size %d", st.BytesRead, buf.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
