package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"memexplore/internal/jobs"
)

// tinyOptionsJSON keeps test sweeps fast: 8 legal config points.
const tinyOptionsJSON = `{"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1],"tilings":[1,2]}`

func newTestServer(t *testing.T) *Server {
	t.Helper()
	return MustNew(Config{MaxConcurrentSweeps: 2, CacheEntries: 8})
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeExplore(t *testing.T, w *httptest.ResponseRecorder) ExploreResponse {
	t.Helper()
	var resp ExploreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return resp
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) ErrorDetail {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding error %q: %v", w.Body.String(), err)
	}
	return body.Error
}

func TestExploreHappyPath(t *testing.T) {
	s := newTestServer(t)
	w := postJSON(t, s, "/v1/explore", `{"kernel":"compress","options":`+tinyOptionsJSON+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeExplore(t, w)
	if resp.Kernel != "compress" || resp.Cached || resp.Points == 0 || len(resp.Metrics) != resp.Points {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Best.MinEnergy == nil || resp.Best.MinCycles == nil || resp.Best.MinEDP == nil {
		t.Error("missing unbounded optima")
	}
	if resp.Best.MinEnergyUnderCycleBound != nil {
		t.Error("bounded optimum present without a bound in the request")
	}
	m := resp.Metrics[0]
	if m.CacheSize == 0 || m.Accesses == 0 || m.EnergyNJ <= 0 {
		t.Errorf("implausible metrics row: %+v", m)
	}
}

func TestExploreBoundedSelection(t *testing.T) {
	s := newTestServer(t)
	w := postJSON(t, s, "/v1/explore",
		`{"kernel":"compress","options":`+tinyOptionsJSON+`,"cycle_bound":1e12,"energy_bound_nj":1e12}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	resp := decodeExplore(t, w)
	if resp.Best.MinEnergyUnderCycleBound == nil || resp.Best.MinCyclesUnderEnergyBound == nil {
		t.Errorf("bounded optima missing under generous bounds: %+v", resp.Best)
	}
}

func TestExploreCacheHit(t *testing.T) {
	s := newTestServer(t)
	hits0 := vars.cacheHits.Value()
	body := `{"kernel":"compress","options":` + tinyOptionsJSON + `}`

	w1 := postJSON(t, s, "/v1/explore", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", w1.Code, w1.Body)
	}
	if decodeExplore(t, w1).Cached {
		t.Error("first request claims a cache hit")
	}

	// A wire-equivalent request — shuffled, duplicated candidate lists —
	// must hit the same cache entry (content addressing via Normalize).
	equiv := `{"kernel":"compress","options":{"cache_sizes":[64,32,32],"line_sizes":[8,4],"assocs":[1,1],"tilings":[2,1]}}`
	w2 := postJSON(t, s, "/v1/explore", equiv)
	if w2.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", w2.Code, w2.Body)
	}
	resp2 := decodeExplore(t, w2)
	if !resp2.Cached {
		t.Error("equivalent repeated request missed the cache")
	}
	if got := vars.cacheHits.Value() - hits0; got < 1 {
		t.Errorf("expvar cache_hits delta = %d, want ≥ 1", got)
	}
	resp1 := decodeExplore(t, w1)
	if len(resp1.Metrics) != len(resp2.Metrics) {
		t.Errorf("cached reply diverged: %d vs %d points", len(resp1.Metrics), len(resp2.Metrics))
	}
}

func TestExploreInlineSourceAndParseError(t *testing.T) {
	s := newTestServer(t)
	src := "// inline\nint8 a[64]\nfor i = 0, 63\na[i]\n"
	w := postJSON(t, s, "/v1/explore",
		`{"source":`+mustJSON(src)+`,"options":`+tinyOptionsJSON+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("inline source: %d %s", w.Code, w.Body)
	}
	if resp := decodeExplore(t, w); resp.Kernel != "inline" {
		t.Errorf("kernel name = %q", resp.Kernel)
	}

	w = postJSON(t, s, "/v1/explore", `{"source":"for for for"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("parse error status = %d", w.Code)
	}
	if e := decodeError(t, w); e.Code != "invalid_kernel" {
		t.Errorf("error code = %q", e.Code)
	}
}

// TestExploreSourceCannotRun: a kernel source whose loop arithmetic
// leaves the int64 range, or whose index leaves its array, is a 400
// invalid_kernel, synchronously and as a job — never a panic in a sweep
// worker or a loop walk that wraps and spins — and the server answers
// the next request after each.
func TestExploreSourceCannotRun(t *testing.T) {
	s := MustNew(Config{MaxConcurrentSweeps: 2, SweepWorkers: 2, CacheEntries: 8})
	sweep := func(src, opts string) string {
		return `{"source":` + mustJSON(src) + `,"options":` + opts + `}`
	}
	expectKernelError := func(what string, w *httptest.ResponseRecorder) {
		t.Helper()
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", what, w.Code, w.Body)
		}
		if e := decodeError(t, w); e.Code != CodeInvalidKernel {
			t.Errorf("%s: error = %+v, want %s", what, e, CodeInvalidKernel)
		}
	}
	nextRequestServed := func(what string) {
		t.Helper()
		if w := postJSON(t, s, "/v1/explore", `{"kernel":"compress","options":`+tinyOptionsJSON+`}`); w.Code != http.StatusOK {
			t.Fatalf("after %s: next request = %d %s", what, w.Code, w.Body)
		}
	}

	// 2^63-1 iterations of two references: the count overflows int64.
	overflow := sweep("int8 a[1]\nfor i = 0, 9223372036854775806\n  a[0], a[0]\n", `{}`)
	expectKernelError("overflowing count", postJSON(t, s, "/v1/explore", overflow))
	nextRequestServed("overflowing count")
	expectKernelError("overflowing count job", doJSON(t, s, "POST", "/v1/jobs", nil, []byte(overflow)))
	nextRequestServed("overflowing count job")

	// An outer loop ending at the largest int: its walk stops there
	// rather than wrapping, so the untiled sweep runs; a tiling would
	// push the tile bound past the largest int.
	edge := "int8 a[1]\nfor i = 9223372036854775806, 9223372036854775807\n  for j = 0, 0\n    a[0]\n"
	if w := postJSON(t, s, "/v1/explore", sweep(edge, `{"tilings":[1]}`)); w.Code != http.StatusOK {
		t.Fatalf("loop ending at the largest int: %d %s", w.Code, w.Body)
	} else if resp := decodeExplore(t, w); resp.Metrics[0].Accesses != 2 {
		t.Errorf("loop ending at the largest int: %d accesses, want 2", resp.Metrics[0].Accesses)
	}
	expectKernelError("tile bound overflow", postJSON(t, s, "/v1/explore", sweep(edge, `{"tilings":[1,4]}`)))
	nextRequestServed("tile bound overflow")

	// An index outside its array fails the sweep, and the job with it.
	outside := sweep("int8 a[4]\nfor i = 0, 4\n  a[i]\n", `{"tilings":[1]}`)
	expectKernelError("index out of range", postJSON(t, s, "/v1/explore", outside))
	w := doJSON(t, s, "POST", "/v1/jobs", nil, []byte(outside))
	if w.Code != http.StatusAccepted {
		t.Fatalf("index out of range job: submit = %d %s", w.Code, w.Body)
	}
	if rec := awaitJob(t, s, decodeRecord(t, w).ID); rec.State != jobs.StateFailed || rec.Error == nil || rec.Error.Code != CodeInvalidKernel {
		t.Errorf("index out of range job: state %s, error %+v, want failed with %s", rec.State, rec.Error, CodeInvalidKernel)
	}
	nextRequestServed("index out of range")
}

func TestExploreRequestValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
		code       string
		field      string
	}{
		{"unknown kernel", `{"kernel":"nope"}`, http.StatusNotFound, "unknown_kernel", ""},
		{"no kernel", `{}`, http.StatusBadRequest, "invalid_request", ""},
		{"both kernel and source", `{"kernel":"compress","source":"x"}`, http.StatusBadRequest, "invalid_request", ""},
		{"bad json", `{`, http.StatusBadRequest, "invalid_request", ""},
		{"unknown field", `{"kernel":"compress","bogus":1}`, http.StatusBadRequest, "invalid_request", ""},
		{"bad line size", `{"kernel":"compress","options":{"line_sizes":[3]}}`, http.StatusBadRequest, "invalid_options", "line_sizes"},
		{"bad tiling", `{"kernel":"compress","options":{"tilings":[0]}}`, http.StatusBadRequest, "invalid_options", "tilings"},
		{"retired dominant_eps", `{"kernel":"compress","options":{"dominant_eps":0.05}}`, http.StatusBadRequest, "invalid_options", ""},
	}
	for _, c := range cases {
		w := postJSON(t, s, "/v1/explore", c.body)
		if w.Code != c.status {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, w.Code, c.status, w.Body)
			continue
		}
		e := decodeError(t, w)
		if e.Code != c.code {
			t.Errorf("%s: code = %q, want %q", c.name, e.Code, c.code)
		}
		if e.Field != c.field {
			t.Errorf("%s: field = %q, want %q", c.name, e.Field, c.field)
		}
	}
}

func TestExploreClientDisconnectCancelsSweep(t *testing.T) {
	s := newTestServer(t)
	canceled0 := vars.canceled.Value()

	// A pre-canceled request context models a client that disconnected
	// while the request was queued: the sweep must not run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/explore",
		strings.NewReader(`{"kernel":"matmul"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != StatusClientClosedRequest {
		t.Errorf("pre-canceled context: status = %d, want %d", w.Code, StatusClientClosedRequest)
	}
	if e := decodeError(t, w); e.Code != "canceled" {
		t.Errorf("error code = %q", e.Code)
	}
	if got := vars.canceled.Value() - canceled0; got != 1 {
		t.Errorf("canceled counter delta = %d, want 1", got)
	}

	// Live disconnect: cancel mid-sweep over a real connection and watch
	// the server abandon the work.
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	body := `{"kernel":"matmul","options":{"classify":true}}` // full default space, slow
	hreq, err := http.NewRequestWithContext(ctx2, "POST", ts.URL+"/v1/explore", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel2()
	if err := <-errc; err == nil {
		t.Error("canceled request did not error on the client")
	}
	deadline := time.Now().Add(10 * time.Second)
	for vars.canceled.Value()-canceled0 < 2 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the mid-sweep cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConcurrentExploreSharedCache(t *testing.T) {
	// A filesystem store makes the result tier countable: one file per
	// content key.
	dir := t.TempDir()
	s := MustNew(Config{MaxConcurrentSweeps: 4, JobsDir: dir})
	const n = 12
	bodies := []string{
		`{"kernel":"compress","options":` + tinyOptionsJSON + `}`,
		`{"kernel":"dequant","options":` + tinyOptionsJSON + `}`,
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, s, "/v1/explore", bodies[i%len(bodies)])
			if w.Code != http.StatusOK {
				errs[i] = fmt.Errorf("request %d: status %d body %s", i, w.Code, w.Body)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(bodies) {
		t.Errorf("result tier entries = %d, want %d", len(entries), len(bodies))
	}
}

func TestAggregate(t *testing.T) {
	s := newTestServer(t)
	body := `{"kernels":[{"kernel":"compress","trip":3},{"kernel":"dequant","trip":1}],"options":` + tinyOptionsJSON + `}`
	w := postJSON(t, s, "/v1/aggregate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp AggregateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || len(resp.Program) == 0 || resp.Best.MinEnergy == nil {
		t.Fatalf("response = %+v", resp)
	}
	if len(resp.PerKernelBest) != 2 {
		t.Errorf("per-kernel optima = %v", resp.PerKernelBest)
	}

	// Identical aggregate → cache hit.
	w = postJSON(t, s, "/v1/aggregate", body)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("repeated aggregate missed the cache")
	}

	// Bad trips and empty kernel lists are 400s.
	for _, bad := range []string{
		`{"kernels":[]}`,
		`{"kernels":[{"kernel":"compress","trip":0}]}`,
		`{"kernels":[{"kernel":"compress","trip":-2}]}`,
	} {
		if w := postJSON(t, s, "/v1/aggregate", bad); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, w.Code)
		}
	}
	if w := postJSON(t, s, "/v1/aggregate", `{"kernels":[{"kernel":"ghost","trip":1}]}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown aggregate kernel: status = %d, want 404", w.Code)
	}
}

func TestKernelsAndHealthz(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/v1/kernels", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var ks KernelsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ks); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range ks.Kernels {
		if k == "compress" {
			found = true
		}
	}
	if !found {
		t.Errorf("kernel list %v missing compress", ks.Kernels)
	}

	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"ok"`)) {
		t.Errorf("healthz = %d %s", w.Code, w.Body)
	}
}

// TestDebugVars serves the expvar page and checks the memexplored map
// against its catalogue in docs/SERVICE.md: every registered key is
// listed under GET /debug/vars, and every listed key is registered.
func TestDebugVars(t *testing.T) {
	s := newTestServer(t)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", "/debug/vars", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("debug/vars = %d", w.Code)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &all); err != nil {
		t.Fatalf("expvar page is not JSON: %v", err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(all["memexplored"], &m); err != nil {
		t.Fatalf("memexplored map: %v", err)
	}
	listed := documentedVars(t)
	for key := range m {
		if !listed[key] {
			t.Errorf("expvar %s is registered but not listed in docs/SERVICE.md", key)
		}
	}
	for key := range listed {
		if _, ok := m[key]; !ok {
			t.Errorf("docs/SERVICE.md lists expvar %s, which is not registered", key)
		}
	}
	var lat struct {
		P50 float64 `json:"p50_ms"`
		P99 float64 `json:"p99_ms"`
	}
	if err := json.Unmarshal(m["latency_ms"], &lat); err != nil {
		t.Errorf("latency_ms is not structured: %v", err)
	}
}

// documentedVars returns the keys docs/SERVICE.md lists under
// GET /debug/vars: the backquoted names that head each bullet, before
// its dash.
func documentedVars(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVICE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### `GET /debug/vars`")
	if !ok {
		t.Fatal("docs/SERVICE.md has no GET /debug/vars section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	keys := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		head, _, ok := strings.Cut(line, " —")
		if !strings.HasPrefix(line, "- ") || !ok {
			continue
		}
		for _, name := range strings.Split(head[2:], "/") {
			keys[strings.Trim(strings.TrimSpace(name), "`")] = true
		}
	}
	if len(keys) == 0 {
		t.Fatal("no expvars listed under GET /debug/vars in docs/SERVICE.md")
	}
	return keys
}

func TestPointsEvaluatedCounter(t *testing.T) {
	s := newTestServer(t)
	points0 := vars.points.Value()
	workloads0 := vars.workloads.Value()
	saved0 := vars.passesSaved.Value()
	// A fresh options shape (distinct from other tests) guarantees a miss.
	w := postJSON(t, s, "/v1/explore", `{"kernel":"sor","options":{"cache_sizes":[128],"line_sizes":[8],"assocs":[1,2],"tilings":[1]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d %s", w.Code, w.Body)
	}
	resp := decodeExplore(t, w)
	if got := vars.points.Value() - points0; got != int64(resp.Points) {
		t.Errorf("points_evaluated delta = %d, want %d", got, resp.Points)
	}
	// One tiling, one (L, sets) geometry: both assoc points share a single
	// workload trace, so the batched engine saved points−1 passes.
	if got := vars.workloads.Value() - workloads0; got != 1 {
		t.Errorf("workloads_explored delta = %d, want 1", got)
	}
	if got := vars.passesSaved.Value() - saved0; got != int64(resp.Points)-1 {
		t.Errorf("trace_passes_saved delta = %d, want %d", got, resp.Points-1)
	}
}

func TestInclusionCounters(t *testing.T) {
	s := newTestServer(t)
	groups0 := vars.inclusionGroups.Value()
	// T ∈ {64, 128} × L=8 × S ∈ {1, 2} on the sequential layout (the
	// optimized layout keys workloads on (T, L), which pins the geometry):
	// the points (64,8,1) and (128,8,2) share the (L=8, sets=8) geometry,
	// while (64,8,2) and (128,8,1) are singleton geometries. Every
	// geometry is one inclusion group, so the plan is 4 points over 3
	// groups and 3 pass units.
	w := postJSON(t, s, "/v1/explore", `{"kernel":"pde","options":{"cache_sizes":[64,128],"line_sizes":[8],"assocs":[1,2],"tilings":[1],"optimize_layout":false}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d %s", w.Code, w.Body)
	}
	resp := decodeExplore(t, w)
	if resp.Points != 4 {
		t.Fatalf("points = %d, want 4", resp.Points)
	}
	if got := vars.inclusionGroups.Value() - groups0; got != 3 {
		t.Errorf("inclusion_groups delta = %d, want 3", got)
	}
	if got, want := vars.configsPerPass.Value(), 4.0/3.0; got != want {
		t.Errorf("configs_per_pass = %g, want %g", got, want)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := newTestServer(t)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	if !s.Draining() {
		t.Error("server not draining after Shutdown")
	}
	w := postJSON(t, s, "/v1/explore", `{"kernel":"compress"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown explore = %d, want 503", w.Code)
	}
	if e := decodeError(t, w); e.Code != "draining" {
		t.Errorf("error code = %q", e.Code)
	}
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest("GET", "/healthz", nil))
	if hw.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hw.Code)
	}
}

func TestLatencyHistogram(t *testing.T) {
	var h latencyHist
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	for i := 0; i < 98; i++ {
		h.Observe(3) // → le_5 bucket
	}
	h.Observe(800)  // → le_1000
	h.Observe(9000) // → le_10000
	if got := h.Quantile(0.50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := h.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %v, want 1000", got)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(h.String()), &parsed); err != nil {
		t.Fatalf("histogram JSON: %v (%s)", err, h.String())
	}
}
