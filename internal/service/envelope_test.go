package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memexplore/internal/core"
)

// TestTraceOptionsHeaderForm: the options header reaches every sweep
// and ingest option, and without a header the defaults apply.
func TestTraceOptionsHeaderForm(t *testing.T) {
	s := newTestServer(t)
	din := kernelDin(t)
	header := `{"kind":"explore-trace","options":{"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1]}}`

	hw := postTrace(t, s, header, din)
	if hw.Code != http.StatusOK {
		t.Fatalf("header form status = %d: %s", hw.Code, hw.Body)
	}
	if hr := decodeTrace(t, hw); hr.Points != 4 {
		t.Errorf("header form swept %d points, want 4", hr.Points)
	}
	dw := postTrace(t, s, "", din)
	if dw.Code != http.StatusOK {
		t.Fatalf("no-header status = %d: %s", dw.Code, dw.Body)
	}
	if dr := decodeTrace(t, dw); dr.Points <= 4 {
		t.Errorf("no-header request swept %d points, want the default space", dr.Points)
	}

	// Ingest limits ride in the header too.
	limited := postTrace(t, s, `{"max_records":1}`, []byte("0 10\n0 20\n"))
	if limited.Code != http.StatusBadRequest {
		t.Fatalf("max_records via header: status = %d", limited.Code)
	}
	if e := decodeError(t, limited); e.Code != CodeRecordLimit {
		t.Errorf("max_records via header: code = %q", e.Code)
	}
}

// TestTraceOptionsConflict: a query string is rejected, with or without
// the header, and the message points at the header — options travel
// only there, so no request sweeps a space its client did not ask for.
func TestTraceOptionsConflict(t *testing.T) {
	s := newTestServer(t)
	for _, header := range []string{"", `{"options":{"cache_sizes":[32]}}`} {
		req := httptest.NewRequest("POST", "/v1/explore-trace?sizes=32,64&lines=4,8", strings.NewReader("0 10\n"))
		if header != "" {
			req.Header.Set(OptionsHeader, header)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("header %q: status = %d, want 400", header, w.Code)
		}
		if e := decodeError(t, w); e.Code != CodeInvalidRequest || !strings.Contains(e.Message, OptionsHeader) {
			t.Errorf("header %q: error = %+v, want %s naming %s", header, e, CodeInvalidRequest, OptionsHeader)
		}
	}
}

// TestErrorEnvelopeSweep drives every client-reachable error code
// through the v1 surface and asserts the one true envelope shape:
// exactly {"error": {code, message[, field]}}, with a code from the
// stable table.
func TestErrorEnvelopeSweep(t *testing.T) {
	shared := newTestServer(t)
	drained := newTestServer(t)
	if err := drained.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	tiny := MustNew(Config{MaxBodyBytes: 64})

	type tc struct {
		name   string
		server *Server
		method string
		path   string
		header http.Header
		body   string
		status int
		code   string
	}
	jsonHdr := http.Header{"Content-Type": {"application/json"}}
	traceHdr := http.Header{OptionsHeader: {traceHeader("", "")}}
	cases := []tc{
		{"explore malformed body", shared, "POST", "/v1/explore", jsonHdr, `{`, 400, CodeInvalidRequest},
		{"explore no kernel", shared, "POST", "/v1/explore", jsonHdr, `{}`, 400, CodeInvalidRequest},
		{"explore bad source", shared, "POST", "/v1/explore", jsonHdr, `{"source":"for {"}`, 400, CodeInvalidKernel},
		{"explore element wider than a trace reference", shared, "POST", "/v1/explore", jsonHdr,
			`{"source":"int2048 a[4]\nfor i = 0, 3\na[i]\n"}`, 400, CodeInvalidKernel},
		{"explore unknown kernel", shared, "POST", "/v1/explore", jsonHdr, `{"kernel":"nope"}`, 404, CodeUnknownKernel},
		{"explore bad options", shared, "POST", "/v1/explore", jsonHdr, `{"kernel":"matadd","options":{"tilings":[0]}}`, 400, CodeInvalidOptions},
		{"explore wrong kind", shared, "POST", "/v1/explore", jsonHdr, `{"kind":"explore-trace","kernel":"matadd"}`, 400, CodeInvalidRequest},
		{"aggregate bad options", shared, "POST", "/v1/aggregate", jsonHdr,
			`{"kernels":[{"kernel":"matadd","trip":1}],"options":{"tilings":[0]}}`, 400, CodeInvalidOptions},
		{"search empty budget", shared, "POST", "/v1/search", jsonHdr, `{"kernel":"matadd"}`, 400, CodeInvalidSearch},
		{"search bad pop size", shared, "POST", "/v1/search", jsonHdr,
			`{"kernel":"matadd","search":{"pop_size":1},"budget":{"max_generations":1}}`, 400, CodeInvalidSearch},
		{"search bad options", shared, "POST", "/v1/search", jsonHdr,
			`{"kernel":"matadd","options":{"tilings":[0]},"budget":{"max_generations":1}}`, 400, CodeInvalidOptions},
		{"search wrong kind", shared, "POST", "/v1/search", jsonHdr, `{"kind":"explore","kernel":"matadd","budget":{"max_generations":1}}`, 400, CodeInvalidRequest},
		{"trace conflicting options", shared, "POST", "/v1/explore-trace?sizes=32",
			http.Header{OptionsHeader: {`{}`}}, "0 10\n", 400, CodeInvalidRequest},
		{"trace malformed record", shared, "POST", "/v1/explore-trace", traceHdr, "wat\n", 400, CodeInvalidTrace},
		{"trace empty", shared, "POST", "/v1/explore-trace", traceHdr, "", 400, CodeEmptyTrace},
		{"trace record limit", shared, "POST", "/v1/explore-trace",
			http.Header{OptionsHeader: {traceHeader("", `"max_records":1`)}}, "0 10\n0 20\n", 400, CodeRecordLimit},
		{"trace body too large", tiny, "POST", "/v1/explore-trace", traceHdr,
			strings.Repeat("0 10\n", 100), 413, CodeBodyTooLarge},
		{"job unknown", shared, "GET", "/v1/jobs/beefbeef", nil, "", 404, CodeUnknownJob},
		{"trace unknown ref", shared, "POST", "/v1/explore-trace",
			http.Header{OptionsHeader: {`{"kind":"explore-trace","trace_ref":"` + strings.Repeat("ab", 32) + `"}`}},
			"", 404, CodeUnknownTraceRef},
		{"submit while draining", drained, "POST", "/v1/jobs", jsonHdr, `{"kernel":"matadd"}`, 503, CodeDraining},
		{"explore while draining", drained, "POST", "/v1/explore", jsonHdr, `{"kernel":"matadd"}`, 503, CodeDraining},
	}

	known := make(map[string]bool, len(KnownErrorCodes))
	for _, c := range KnownErrorCodes {
		known[c] = true
	}
	covered := map[string]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
			for k, vs := range c.header {
				req.Header[k] = vs
			}
			w := httptest.NewRecorder()
			c.server.ServeHTTP(w, req)
			if w.Code != c.status {
				t.Fatalf("status = %d, want %d (%s)", w.Code, c.status, w.Body)
			}
			// The envelope is exactly one top-level "error" object with a
			// code, a message, and at most a field.
			var top map[string]json.RawMessage
			if err := json.Unmarshal(w.Body.Bytes(), &top); err != nil {
				t.Fatalf("body is not a JSON object: %s", w.Body)
			}
			if len(top) != 1 || top["error"] == nil {
				t.Fatalf("envelope has keys %v, want exactly [error]", keysOf(top))
			}
			var detail map[string]json.RawMessage
			if err := json.Unmarshal(top["error"], &detail); err != nil {
				t.Fatalf("error value is not an object: %s", top["error"])
			}
			for k := range detail {
				if k != "code" && k != "message" && k != "field" {
					t.Errorf("unexpected envelope key %q", k)
				}
			}
			e := decodeError(t, w)
			if e.Code != c.code {
				t.Errorf("code = %q, want %q (%+v)", e.Code, c.code, e)
			}
			if !known[e.Code] {
				t.Errorf("code %q is not in KnownErrorCodes", e.Code)
			}
			if e.Message == "" {
				t.Error("empty error message")
			}
			covered[e.Code] = true
		})
	}

	// The sweep exercises the whole stable table except canceled (needs a
	// mid-flight disconnect; pinned by TestExploreClientDisconnectCancelsSweep)
	// and internal (no client input reaches it by construction).
	for _, code := range KnownErrorCodes {
		if code == CodeCanceled || code == CodeInternal {
			continue
		}
		if !covered[code] {
			t.Errorf("error code %q not covered by the sweep", code)
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestClassifiedExploreEnvelope: a classified kernel sweep runs on the
// batched engine — one pass per workload group, a classifying fallback
// cache per point — and its envelope and counters say so.
func TestClassifiedExploreEnvelope(t *testing.T) {
	s := newTestServer(t)
	const options = `{"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1,2],"tilings":[1,2],"classify":true}`
	opts := core.DefaultOptions()
	if err := json.Unmarshal([]byte(options), &opts); err != nil {
		t.Fatal(err)
	}
	workloads := opts.Normalize().Workloads()
	workloads0 := vars.workloads.Value()
	w := postJSON(t, s, "/v1/explore", `{"kernel":"compress","options":`+options+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explore = %d: %s", w.Code, w.Body)
	}
	resp := decodeExplore(t, w)
	if resp.Engine != "batched" || resp.Plan == nil || resp.Plan.Workloads != workloads ||
		resp.Plan.FallbackConfigs != resp.Points || resp.Plan.InclusionGroups != 0 {
		t.Fatalf("classified meta = %+v, plan %+v; want engine batched, %d workloads, %d fallbacks",
			resp.ResultMeta, resp.Plan, workloads, resp.Points)
	}
	if got := vars.workloads.Value() - workloads0; got != int64(workloads) {
		t.Errorf("workloads_explored delta = %d, want %d", got, workloads)
	}
	var conflicts uint64
	for _, m := range resp.Metrics {
		conflicts += m.ConflictMisses
	}
	if conflicts == 0 {
		t.Error("classified sweep reports no conflict misses")
	}
}

// TestResultMetaOnSuccess: every successful sweep response carries the
// result envelope — cached flag, engine name, and the sweep plan.
func TestResultMetaOnSuccess(t *testing.T) {
	s := newTestServer(t)

	// Synchronous explore: miss then hit flips cached; engine and plan
	// are always present.
	w := postJSON(t, s, "/v1/explore", `{"kernel":"matadd","options":`+tinyOptionsJSON+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explore = %d: %s", w.Code, w.Body)
	}
	miss := decodeExplore(t, w)
	if miss.Cached || miss.Engine == "" || miss.Plan == nil || miss.Plan.Points == 0 {
		t.Fatalf("explore meta = %+v", miss.ResultMeta)
	}
	if miss.Plan.Points != miss.Points {
		t.Errorf("plan points %d != evaluated points %d", miss.Plan.Points, miss.Points)
	}
	hit := decodeExplore(t, postJSON(t, s, "/v1/explore", `{"kernel":"matadd","options":`+tinyOptionsJSON+`}`))
	if !hit.Cached || hit.Engine != miss.Engine {
		t.Fatalf("cache-hit meta = %+v", hit.ResultMeta)
	}

	// Trace sweep: batched-family engine plus a plan.
	tw := postTrace(t, s, traceHeader("", ""), kernelDin(t))
	if tw.Code != http.StatusOK {
		t.Fatalf("trace = %d: %s", tw.Code, tw.Body)
	}
	tr := decodeTrace(t, tw)
	if tr.Cached || tr.Engine == "" || tr.Plan == nil || tr.Plan.Points != tr.Points {
		t.Fatalf("trace meta = %+v", tr.ResultMeta)
	}

	// Aggregate: the plan is scaled by the kernel count.
	aw := postJSON(t, s, "/v1/aggregate", `{"kernels":[{"kernel":"matadd","trip":1}],"options":`+tinyOptionsJSON+`}`)
	if aw.Code != http.StatusOK {
		t.Fatalf("aggregate = %d: %s", aw.Code, aw.Body)
	}
	var agg AggregateResponse
	if err := json.Unmarshal(aw.Body.Bytes(), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Engine == "" || agg.Plan == nil || agg.Plan.Points == 0 {
		t.Fatalf("aggregate meta = %+v", agg.ResultMeta)
	}
}
