package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"memexplore"
	"memexplore/internal/service"
)

// TestClientMatchesLocalRun drives client mode end to end: runClient
// submits an explore job and a trace job to an in-process memexplored,
// waits for each, and its -json output must equal the local run's byte
// for byte.
func TestClientMatchesLocalRun(t *testing.T) {
	srv := httptest.NewServer(service.MustNew(service.Config{MaxConcurrentSweeps: 2}))
	defer srv.Close()
	dir := t.TempDir()

	opts := memexplore.DefaultOptions()
	opts.CacheSizes = []int{32, 64, 128}
	opts.LineSizes = []int{4, 8}
	opts.Assocs = []int{1, 2}
	opts.Tilings = []int{1, 2}
	opts.Workers = 1
	kern, err := memexplore.Kernel("compress")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := memexplore.GenerateTrace(kern, memexplore.SequentialLayout(kern, 0))
	if err != nil {
		t.Fatal(err)
	}
	var din bytes.Buffer
	if _, err := memexplore.WriteDinTrace(&din, tr); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "compress.din")
	if err := os.WriteFile(tracePath, din.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var ing memexplore.TraceIngestOptions

	for _, tc := range []struct {
		name      string
		tracePath string
		local     func() ([]memexplore.Metrics, error)
	}{
		{"explore", "", func() ([]memexplore.Metrics, error) { return memexplore.Explore(kern, opts) }},
		{"trace", tracePath, func() ([]memexplore.Metrics, error) {
			ms, _, err := memexplore.ExploreTrace(bytes.NewReader(din.Bytes()), opts, ing)
			return ms, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := tc.local()
			if err != nil {
				t.Fatal(err)
			}
			localPath := filepath.Join(dir, tc.name+"-local.json")
			if err := writeJSON(localPath, ms); err != nil {
				t.Fatal(err)
			}
			clientPath := filepath.Join(dir, tc.name+"-client.json")
			ro := reportOpts{jsonPath: clientPath}
			if err := runClient(srv.URL, "", true, tc.tracePath, "compress", "", opts, ing, 0, 0, 0, ro); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(localPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(clientPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 || !bytes.Equal(got, want) {
				t.Errorf("client -json output (%d bytes) differs from the local run's (%d bytes, %d points)",
					len(got), len(want), len(ms))
			}
		})
	}
}
