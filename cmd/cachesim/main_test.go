package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"memexplore/internal/cachesim"
	"memexplore/internal/trace"
)

func TestLoadTraceKernel(t *testing.T) {
	tr, err := loadTrace("", "matadd", "", 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 108 {
		t.Errorf("matadd trace = %d refs, want 108", tr.Len())
	}
	// Tiled variant still generates.
	tiled, err := loadTrace("", "matadd", "", 2, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Len() != tr.Len() {
		t.Errorf("tiling changed the reference count: %d vs %d", tiled.Len(), tr.Len())
	}
	// Optimized layout path.
	if _, err := loadTrace("", "compress", "", 1, true, 8, 64); err != nil {
		t.Errorf("optimized load: %v", err)
	}
}

func TestLoadTraceDin(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.din"
	if err := os.WriteFile(path, []byte("0 10\n1 20 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace(path, "", "", 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The optional third din field is the access size.
	if tr.Len() != 2 || tr.At(0).Addr != 0x10 || tr.At(1).Size != 4 {
		t.Errorf("din trace = %+v", tr.Refs())
	}
}

func TestLoadTraceNestFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/k.nest"
	src := "// tiny\nint8 a[8]\nfor i = 0, 7\na[i]\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace("", "", path, 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 8 {
		t.Errorf("nest trace = %d refs", tr.Len())
	}
}

func TestLoadTraceErrors(t *testing.T) {
	if _, err := loadTrace("", "", "", 1, false, 8, 64); err == nil {
		t.Error("no source should fail")
	}
	if _, err := loadTrace("x.din", "compress", "", 1, false, 8, 64); err == nil {
		t.Error("two sources should fail")
	}
	if _, err := loadTrace("", "nope", "", 1, false, 8, 64); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := loadTrace("/nonexistent.din", "", "", 1, false, 8, 64); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunSweepValidation(t *testing.T) {
	tr, err := loadTrace("", "matadd", "", 1, false, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := cachesim.DefaultConfig(64, 8, 1)
	if err := runSweep(base, tr, "16,32,64"); err != nil {
		t.Errorf("sweep failed: %v", err)
	}
	if err := runSweep(base, tr, "x"); err == nil {
		t.Error("bad size should fail")
	}
	if err := runSweep(base, tr, " , "); err == nil {
		t.Error("empty list should fail")
	}
	if err := runSweep(base, tr, "48"); err == nil {
		t.Error("non-power-of-two size should fail")
	}
}

// TestDumpTraceRoundTrip dumps a nest whose int32 elements straddle
// 4-byte lines (the int8 array ahead of them misaligns them) and
// re-simulates the dump: the din size field must survive, so the dump
// reads back to the very statistics of the generated trace, as a plain
// file, a .gz file and on stdout ("-").
func TestDumpTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	nest := filepath.Join(dir, "wide.nest")
	src := "int8 a[3]\nint32 b[8]\nfor p = 0, 3\n  for i = 0, 7\n    b[i]\n"
	if err := os.WriteFile(nest, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace("", "", nest, 1, false, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.DefaultConfig(32, 4, 1)
	want, err := cachesim.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if want.Misses != 14 || want.LinesFetched != 15 {
		t.Fatalf("generated trace: %d misses, %d lines fetched, want 14 and 15", want.Misses, want.LinesFetched)
	}
	check := func(name string, back *trace.Trace) {
		t.Helper()
		got, err := cachesim.RunTrace(cfg, back)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: re-simulated dump %+v, want %+v", name, got, want)
		}
	}
	for _, name := range []string{"wide.din", "wide.din.gz"} {
		path := filepath.Join(dir, name)
		if err := dumpTrace(tr, path); err != nil {
			t.Fatal(err)
		}
		back, err := loadTrace(path, "", "", 1, false, 4, 32)
		if err != nil {
			t.Fatal(err)
		}
		check(name, back)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = dumpTrace(tr, "-")
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("-"); err == nil {
		os.Remove("-")
		t.Error(`-dump-trace - created a file named "-"`)
	}
	back, err := readTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	check("stdout", back)
}
