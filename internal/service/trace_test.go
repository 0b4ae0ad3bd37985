package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

// traceSpace is the fast sweep space for the trace tests: the options
// members of an X-Memexplore-Options document.
const traceSpace = `"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1]`

// traceHeader builds an X-Memexplore-Options document over traceSpace:
// opts adds members to its options object, top adds top-level
// TraceRequest members (either may be empty).
func traceHeader(opts, top string) string {
	h := `{"options":{` + traceSpace
	if opts != "" {
		h += "," + opts
	}
	h += "}"
	if top != "" {
		h += "," + top
	}
	return h + "}"
}

// kernelDin renders a paper kernel's trace in the din text format.
func kernelDin(t *testing.T) []byte {
	t.Helper()
	n := kernels.MatAdd()
	tiled, err := loopir.TileAll(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := extrace.WriteDin(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postTrace posts a trace body with header as its X-Memexplore-Options
// document (none when empty).
func postTrace(t *testing.T, s *Server, header string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/explore-trace", bytes.NewReader(body))
	if header != "" {
		req.Header.Set(OptionsHeader, header)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeTrace(t *testing.T, w *httptest.ResponseRecorder) TraceExploreResponse {
	t.Helper()
	var resp TraceExploreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return resp
}

func TestExploreTraceHappyPath(t *testing.T) {
	s := newTestServer(t)
	din := kernelDin(t)
	w := postTrace(t, s, traceHeader("", ""), din)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeTrace(t, w)
	// sizes{32,64} × lines{4,8} × assocs{1} = 4 legal points.
	if resp.Points != 4 || len(resp.Metrics) != 4 {
		t.Fatalf("points = %d (metrics %d), want 4", resp.Points, len(resp.Metrics))
	}
	if resp.Ingest.Records == 0 || resp.Ingest.Format != "din" || resp.Ingest.BytesRead != int64(len(din)) {
		t.Errorf("ingest stats = %+v", resp.Ingest)
	}
	if resp.Best.MinEnergy == nil {
		t.Error("missing min-energy selection")
	}
	if m := resp.Metrics[0]; int64(m.Accesses) != resp.Ingest.Records || m.EnergyNJ <= 0 {
		t.Errorf("implausible metrics row: %+v", m)
	}
	// Every point reports the baked-in tiling, not a swept one.
	for _, m := range resp.Metrics {
		if m.Tiling != 1 {
			t.Fatalf("trace sweep swept tiling %d", m.Tiling)
		}
	}
}

func TestExploreTraceGzipBody(t *testing.T) {
	s := newTestServer(t)
	din := kernelDin(t)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(din); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	w := postTrace(t, s, traceHeader("", ""), gz.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeTrace(t, w)
	if !resp.Ingest.Gzip || resp.Ingest.BytesRead != int64(gz.Len()) {
		t.Errorf("ingest stats = %+v, want gzip with %d wire bytes", resp.Ingest, gz.Len())
	}

	// The compressed and plain bodies must sweep identically.
	plain := decodeTrace(t, postTrace(t, s, traceHeader("", ""), din))
	for i := range plain.Metrics {
		if plain.Metrics[i] != resp.Metrics[i] {
			t.Fatalf("point %d differs between plain and gzip bodies", i)
		}
	}
}

func TestExploreTraceMalformedBody(t *testing.T) {
	s := newTestServer(t)
	w := postTrace(t, s, traceHeader("", ""), []byte("0 10\n1 20\nnot a record\n"))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	e := decodeError(t, w)
	if e.Code != "invalid_trace" || !strings.Contains(e.Message, "line 3") {
		t.Errorf("error = %+v, want invalid_trace naming line 3", e)
	}
}

func TestExploreTraceSkipMalformed(t *testing.T) {
	s := newTestServer(t)
	w := postTrace(t, s, traceHeader("", `"skip_malformed":true`), []byte("0 10\nbogus\n1 20\n"))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeTrace(t, w)
	if resp.Ingest.Records != 2 || resp.Ingest.Rejects != 1 {
		t.Errorf("ingest = %+v, want 2 records / 1 reject", resp.Ingest)
	}
}

func TestExploreTraceBodyTooLarge(t *testing.T) {
	s := MustNew(Config{MaxBodyBytes: 64})
	w := postTrace(t, s, traceHeader("", ""), bytes.Repeat([]byte("0 10\n"), 100))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if e := decodeError(t, w); e.Code != "body_too_large" {
		t.Errorf("error = %+v", e)
	}
}

func TestExploreTraceErrorCases(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name   string
		header string
		body   string
		code   string
	}{
		{"empty body", traceHeader("", ""), "", "empty_trace"},
		{"comments only", traceHeader("", ""), "# nothing\n", "empty_trace"},
		{"record limit", traceHeader("", `"max_records":1`), "0 10\n0 20\n", "record_limit"},
		{"unknown param", traceHeader("", `"bogus":1`), "0 10\n", "invalid_options"},
		{"bad list", `{"options":{"cache_sizes":"big"}}`, "0 10\n", "invalid_options"},
		{"classify unsupported via unknown key", `{"classify":true}`, "0 10\n", "invalid_options"},
		{"invalid space", `{"options":{"cache_sizes":[16],"line_sizes":[16]}}`, "0 10\n", "invalid_options"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postTrace(t, s, tc.header, []byte(tc.body))
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", w.Code, w.Body)
			}
			if e := decodeError(t, w); e.Code != tc.code {
				t.Errorf("error code = %q, want %q (%+v)", e.Code, tc.code, e)
			}
		})
	}
}

func TestExploreTraceCountersAdvance(t *testing.T) {
	s := newTestServer(t)
	before := vars.traceRecords.Value()
	beforeBytes := vars.traceBytesRead.Value()
	din := kernelDin(t)
	if w := postTrace(t, s, traceHeader("", ""), din); w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if got := vars.traceRecords.Value() - before; got == 0 {
		t.Error("trace_records did not advance")
	}
	if got := vars.traceBytesRead.Value() - beforeBytes; got != int64(len(din)) {
		t.Errorf("trace_bytes_read advanced by %d, want %d", got, len(din))
	}

	// Rejected requests still account for what was ingested.
	beforeRejects := vars.traceRejects.Value()
	postTrace(t, s, traceHeader("", `"skip_malformed":true,"max_records":1`), []byte("0 10\nbogus\n0 20\n"))
	if vars.traceRejects.Value() == beforeRejects {
		t.Error("trace_rejects did not advance on a skip-mode request")
	}
}

func TestExploreTraceDraining(t *testing.T) {
	s := newTestServer(t)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := postTrace(t, s, traceHeader("", ""), []byte("0 10\n"))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", w.Code)
	}
}

// TestExploreTraceWorkersParam pins the workers member: the client
// request is clamped to the server-side cap, the engine reports
// the actual shard count through the trace_workers gauge, and the
// pipeline's ring drains back to empty after every request.
func TestExploreTraceWorkersParam(t *testing.T) {
	s := MustNew(Config{MaxConcurrentSweeps: 2, SweepWorkers: 4, CacheEntries: 8})
	din := kernelDin(t)

	inflightBefore := vars.chunksInflight.Value()
	stallBefore := vars.chunkStall.count.Load()

	// workers=2 under a cap of 4: two shards run.
	if w := postTrace(t, s, traceHeader("", `"workers":2`), din); w.Code != http.StatusOK {
		t.Fatalf("workers=2 status = %d: %s", w.Code, w.Body.String())
	}
	if got := vars.traceWorkers.Value(); got != 2 {
		t.Errorf("trace_workers = %d after workers=2, want 2", got)
	}

	// workers=100 is clamped to the cap (4); the space has 4 pass units,
	// so 4 shards run.
	if w := postTrace(t, s, traceHeader("", `"workers":100`), din); w.Code != http.StatusOK {
		t.Fatalf("workers=100 status = %d: %s", w.Code, w.Body.String())
	}
	if got := vars.traceWorkers.Value(); got != 4 {
		t.Errorf("trace_workers = %d after capped workers=100, want 4", got)
	}

	// workers=1 forces the exact sequential engine.
	if w := postTrace(t, s, traceHeader("", `"workers":1`), din); w.Code != http.StatusOK {
		t.Fatalf("workers=1 status = %d: %s", w.Code, w.Body.String())
	}
	if got := vars.traceWorkers.Value(); got != 1 {
		t.Errorf("trace_workers = %d after workers=1, want 1", got)
	}

	if got := vars.chunksInflight.Value(); got != inflightBefore {
		t.Errorf("chunks_inflight = %d after requests drained, want %d", got, inflightBefore)
	}
	if got := vars.chunkStall.count.Load(); got <= stallBefore {
		t.Error("trace_chunk_stall_ms histogram did not advance on pipelined sweeps")
	}

	// Equal results at every worker count.
	r1 := decodeTrace(t, postTrace(t, s, traceHeader("", `"workers":1`), din))
	r4 := decodeTrace(t, postTrace(t, s, traceHeader("", `"workers":4`), din))
	if !reflect.DeepEqual(r1.Metrics, r4.Metrics) || r1.Ingest.Records != r4.Ingest.Records {
		t.Error("workers=1 and workers=4 responses diverge")
	}
}

// TestExploreTraceSampling pins the sampled-sweep surface of the
// endpoint: the options header, the response envelope, the expvars, and
// determinism across identical requests.
func TestExploreTraceSampling(t *testing.T) {
	s := newTestServer(t)
	din := kernelDin(t)

	sampledBefore := vars.traceSampledRecords.Value()
	w := postTrace(t, s, traceHeader(`"sample_rate":0.5,"sample_seed":7`, ""), din)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeTrace(t, w)
	if resp.Sample == nil {
		t.Fatalf("sampled response lacks the sample envelope: %s", w.Body)
	}
	if resp.Sample.Rate != 0.5 || resp.Sample.Seed != 7 {
		t.Errorf("sample envelope = %+v, want rate 0.5 seed 7", resp.Sample)
	}
	if resp.Sample.SampledRecords <= 0 || resp.Sample.SampledRecords >= resp.Ingest.Records {
		t.Errorf("sampled_records = %d, want a proper subset of %d", resp.Sample.SampledRecords, resp.Ingest.Records)
	}
	if m := resp.Metrics[0]; m.SampleRate != 0.5 || m.SampledRecords != resp.Sample.SampledRecords {
		t.Errorf("per-point envelope = %+v, disagrees with meta %+v", m, resp.Sample)
	}
	if got := vars.traceSampledRecords.Value() - sampledBefore; got != resp.Sample.SampledRecords {
		t.Errorf("trace_sampled_records advanced by %d, want %d", got, resp.Sample.SampledRecords)
	}
	if got := vars.traceSampleRate.Value(); got != 0.5 {
		t.Errorf("trace_sample_rate = %g, want 0.5", got)
	}

	// Identical sampled requests are deterministic.
	again := decodeTrace(t, postTrace(t, s, traceHeader(`"sample_rate":0.5,"sample_seed":7`, ""), din))
	if !reflect.DeepEqual(again.Metrics, resp.Metrics) {
		t.Error("identical sampled requests diverge")
	}

	// An exact request resets the gauge and carries no sample envelope.
	w = postTrace(t, s, traceHeader("", ""), din)
	if exact := decodeTrace(t, w); exact.Sample != nil {
		t.Errorf("exact response carries a sample envelope: %+v", exact.Sample)
	}
	if bytes.Contains(w.Body.Bytes(), []byte(`"sample"`)) {
		t.Error("exact response body mentions the sample envelope key")
	}
	if got := vars.traceSampleRate.Value(); got != 0 {
		t.Errorf("trace_sample_rate = %g after an exact sweep, want 0", got)
	}
}

// TestExploreTraceSamplingHeader drives the same options through the
// X-Memexplore-Options JSON form.
func TestExploreTraceSamplingHeader(t *testing.T) {
	s := newTestServer(t)
	header := `{"kind":"explore-trace","options":{` +
		`"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1],"sample_rate":0.5,"sample_seed":7}}`
	w := postTrace(t, s, header, kernelDin(t))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeTrace(t, w)
	if resp.Sample == nil || resp.Sample.Rate != 0.5 || resp.Sample.Seed != 7 {
		t.Errorf("sample envelope = %+v, want rate 0.5 seed 7", resp.Sample)
	}
}

// TestExploreTraceDominantEps: an HTTP body is not seekable, so the
// two-pass prefilter must spool it and still succeed.
func TestExploreTraceDominantEps(t *testing.T) {
	s := newTestServer(t)
	din := kernelDin(t)
	w := postTrace(t, s, traceHeader(`"dominant_eps":0.1`, ""), din)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeTrace(t, w)
	if resp.Sample == nil || resp.Sample.Rate != 0 || resp.Sample.SampledRecords <= 0 {
		t.Fatalf("prefiltered response envelope = %+v", resp.Sample)
	}
	// Cold skips count as hits, so the access totals still match the
	// stream.
	if m := resp.Metrics[0]; int64(m.Accesses) != resp.Ingest.Records {
		t.Errorf("accesses = %d, want %d", m.Accesses, resp.Ingest.Records)
	}
}

// TestExploreTraceSamplingValidation rejects out-of-range knobs.
func TestExploreTraceSamplingValidation(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{`"sample_rate":1.5`, `"sample_rate":-1`, `"sample_rate":"abc"`,
		`"dominant_eps":0.9`, `"dominant_eps":"x"`, `"sample_seed":-1`} {
		w := postTrace(t, s, traceHeader(q, ""), []byte("0 10\n"))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, w.Code)
		}
		if e := decodeError(t, w); e.Code != "invalid_options" {
			t.Errorf("%s: error code = %q", q, e.Code)
		}
	}
}

// TestExploreTraceWorkersValidation rejects malformed workers values.
func TestExploreTraceWorkersValidation(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{`"workers":-1`, `"workers":"abc"`} {
		w := postTrace(t, s, traceHeader("", q), []byte("0 10\n"))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, w.Code)
		}
		if e := decodeError(t, w); e.Code != "invalid_options" {
			t.Errorf("%s: error code = %q", q, e.Code)
		}
	}
}
