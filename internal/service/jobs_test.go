package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memexplore/internal/jobs"
)

// traceHeaderJSON is the X-Memexplore-Options document of the trace
// tests' sweep space (traceSpace), with its kind.
const traceHeaderJSON = `{"kind":"explore-trace","options":{"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1]}}`

// bigDin repeats the matadd trace until it spans at least minRecords
// records, so a job emits multiple progress chunks and stays cancelable
// mid-run.
func bigDin(t *testing.T, minRecords int) []byte {
	t.Helper()
	din := kernelDin(t)
	records := bytes.Count(din, []byte("\n"))
	if records == 0 {
		t.Fatal("empty kernel trace")
	}
	repeat := minRecords/records + 1
	return bytes.Repeat(din, repeat)
}

// doJSON issues one request against the in-process server.
func doJSON(t *testing.T, s *Server, method, path string, header http.Header, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, vs := range header {
		req.Header[k] = vs
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decodeRecord decodes a job record response.
func decodeRecord(t *testing.T, w *httptest.ResponseRecorder) jobs.Record {
	t.Helper()
	var rec jobs.Record
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatalf("decoding record %q: %v", w.Body.String(), err)
	}
	return rec
}

// awaitJob polls GET /v1/jobs/{id} until the record is terminal.
func awaitJob(t *testing.T, s *Server, id string) jobs.Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := doJSON(t, s, "GET", "/v1/jobs/"+id, nil, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET job = %d: %s", w.Code, w.Body)
		}
		rec := decodeRecord(t, w)
		if rec.State.Terminal() {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, rec.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobExploreLifecycle: submit → 202 immediately → terminal record
// whose result is byte-identical to the synchronous endpoint's body.
func TestJobExploreLifecycle(t *testing.T) {
	body := fmt.Sprintf(`{"kind":"explore","kernel":"matadd","options":%s,"cycle_bound":1e9}`, tinyOptionsJSON)

	// An uncached sync twin on a separate server (same global options,
	// its own result cache) produces the reference bytes.
	sync := postJSON(t, MustNew(Config{MaxConcurrentSweeps: 2, CacheEntries: 8}), "/v1/explore", body)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync twin = %d: %s", sync.Code, sync.Body)
	}

	s := newTestServer(t)
	w := doJSON(t, s, "POST", "/v1/jobs", http.Header{"Content-Type": {"application/json"}}, []byte(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	rec := decodeRecord(t, w)
	if rec.ID == "" || rec.Kind != KindExplore || rec.State.Terminal() {
		t.Fatalf("accepted record = %+v", rec)
	}

	final := awaitJob(t, s, rec.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final = %s (%+v)", final.State, final.Error)
	}
	if final.Progress.Points == 0 || final.Progress.PointsDone != final.Progress.Points {
		t.Errorf("progress totals = %+v", final.Progress)
	}
	want := strings.TrimSuffix(sync.Body.String(), "\n")
	if string(final.Result) != want {
		t.Fatalf("async result differs from sync body:\nasync %s\n sync %s", final.Result, want)
	}
}

// TestJobTraceByteIdentical pins the acceptance criterion: an async
// trace job's result is byte-identical to the synchronous
// /v1/explore-trace response for the same trace and options.
func TestJobTraceByteIdentical(t *testing.T) {
	s := newTestServer(t)
	din := kernelDin(t)
	hdr := http.Header{OptionsHeader: {traceHeaderJSON}}

	sync := doJSON(t, s, "POST", "/v1/explore-trace", hdr, din)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync trace = %d: %s", sync.Code, sync.Body)
	}

	w := doJSON(t, s, "POST", "/v1/jobs", hdr, din)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	rec := decodeRecord(t, w)
	if rec.Kind != KindExploreTrace {
		t.Fatalf("kind = %s", rec.Kind)
	}
	final := awaitJob(t, s, rec.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final = %s (%+v)", final.State, final.Error)
	}
	want := strings.TrimSuffix(sync.Body.String(), "\n")
	if string(final.Result) != want {
		t.Fatalf("async trace result differs from sync body:\nasync %s\n sync %s", final.Result, want)
	}
	if final.Progress.Records == 0 {
		t.Error("trace job reported no record progress")
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  string
}

func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unparseable SSE line %q", line)
			}
		}
		events = append(events, ev)
	}
	return events
}

// TestJobEventsSSE streams a long trace job and pins the acceptance
// criterion of at least two progress events before the terminal one.
func TestJobEventsSSE(t *testing.T) {
	s := newTestServer(t)
	// Large enough (~120 chunks, ~100ms of simulation) that the watcher
	// reliably observes intermediate versions even on a loaded machine.
	din := bigDin(t, 1000000)
	w := doJSON(t, s, "POST", "/v1/jobs", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	rec := decodeRecord(t, w)

	// The handler blocks until the stream ends (terminal event), so a
	// plain synchronous call collects the whole stream.
	ew := doJSON(t, s, "GET", "/v1/jobs/"+rec.ID+"/events", nil, nil)
	if ew.Code != http.StatusOK {
		t.Fatalf("events = %d: %s", ew.Code, ew.Body)
	}
	if ct := ew.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := parseSSE(t, ew.Body.String())
	if len(events) < 3 {
		t.Fatalf("got %d events, want ≥ 3: %+v", len(events), events)
	}
	progress := 0
	for i, ev := range events {
		if ev.id != fmt.Sprint(i) {
			t.Errorf("event %d has id %q", i, ev.id)
		}
		var evRec jobs.Record
		if err := json.Unmarshal([]byte(ev.data), &evRec); err != nil {
			t.Fatalf("event %d data: %v", i, err)
		}
		terminal := i == len(events)-1
		if terminal {
			if ev.event != "done" || evRec.State != jobs.StateDone || evRec.Result == nil {
				t.Fatalf("terminal event = %q state %s (result %d bytes)", ev.event, evRec.State, len(evRec.Result))
			}
		} else if ev.event != "progress" {
			t.Fatalf("event %d = %q, want progress", i, ev.event)
		} else {
			progress++
		}
	}
	if progress < 2 {
		t.Fatalf("only %d progress events before terminal, want ≥ 2", progress)
	}

	// Watching a finished job replays its terminal record once.
	replay := parseSSE(t, doJSON(t, s, "GET", "/v1/jobs/"+rec.ID+"/events", nil, nil).Body.String())
	if len(replay) != 1 || replay[0].event != "done" {
		t.Fatalf("replay = %+v", replay)
	}
}

// TestJobCancelMidRun: DELETE a running trace job and observe the
// canceled terminal state, then verify the server still drains cleanly
// (no stuck goroutine holding a pool slot).
func TestJobCancelMidRun(t *testing.T) {
	s := newTestServer(t)
	din := bigDin(t, 400000)
	w := doJSON(t, s, "POST", "/v1/jobs", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	rec := decodeRecord(t, w)

	// Wait until the job is demonstrably mid-sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := decodeRecord(t, doJSON(t, s, "GET", "/v1/jobs/"+rec.ID, nil, nil))
		if cur.State == jobs.StateRunning && cur.Progress.Records > 0 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before it could be canceled (state %s); enlarge the trace", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached running state")
		}
		time.Sleep(2 * time.Millisecond)
	}

	dw := doJSON(t, s, "DELETE", "/v1/jobs/"+rec.ID, nil, nil)
	if dw.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", dw.Code, dw.Body)
	}
	final := awaitJob(t, s, rec.ID)
	if final.State != jobs.StateCanceled {
		t.Fatalf("state after DELETE = %s", final.State)
	}
	if final.Result != nil || final.Error != nil {
		t.Fatalf("canceled record carries result/error: %+v", final)
	}

	// A canceled job leaves no residue: the drain completes immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after cancel: %v", err)
	}
}

// TestJobsSharedResultTier drives the filesystem store: records survive
// a simulated restart, and a second replica sharing the directory
// recalls completed results without re-running the sweep.
func TestJobsSharedResultTier(t *testing.T) {
	dir := t.TempDir()
	s1 := MustNew(Config{MaxConcurrentSweeps: 2, JobsDir: dir})
	body := fmt.Sprintf(`{"kernel":"matadd","options":%s}`, tinyOptionsJSON)
	w := doJSON(t, s1, "POST", "/v1/jobs", http.Header{"Content-Type": {"application/json"}}, []byte(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	first := awaitJob(t, s1, decodeRecord(t, w).ID)
	if first.State != jobs.StateDone || first.Cached {
		t.Fatalf("first run = %+v", first)
	}

	// "Restart": a second server over the same directory serves the old
	// job id and recalls the result for an identical submission.
	s2 := MustNew(Config{MaxConcurrentSweeps: 2, JobsDir: dir})
	if got := decodeRecord(t, doJSON(t, s2, "GET", "/v1/jobs/"+first.ID, nil, nil)); got.State != jobs.StateDone {
		t.Fatalf("restarted replica Get = %+v", got)
	}
	hitsBefore := vars.cacheHits.Value()
	w2 := doJSON(t, s2, "POST", "/v1/jobs", http.Header{"Content-Type": {"application/json"}}, []byte(body))
	if w2.Code != http.StatusAccepted {
		t.Fatalf("resubmit = %d: %s", w2.Code, w2.Body)
	}
	recalled := decodeRecord(t, w2)
	if recalled.State != jobs.StateDone || !recalled.Cached {
		t.Fatalf("recalled record = state %s cached %v", recalled.State, recalled.Cached)
	}
	if string(recalled.Result) != string(first.Result) {
		t.Fatal("recalled result differs from the original")
	}
	if got := vars.cacheHits.Value() - hitsBefore; got != 1 {
		t.Errorf("cache_hits advanced by %d, want 1", got)
	}
}

// TestJobSubmitValidation: submissions fail synchronously with the
// normal error envelope.
func TestJobSubmitValidation(t *testing.T) {
	s := newTestServer(t)
	jsonHdr := http.Header{"Content-Type": {"application/json"}}
	cases := []struct {
		name   string
		header http.Header
		body   string
		status int
		code   string
	}{
		{"malformed body", jsonHdr, `{nope`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown kernel", jsonHdr, `{"kernel":"nope"}`, http.StatusNotFound, CodeUnknownKernel},
		{"bad options", jsonHdr, `{"kernel":"matadd","options":{"tilings":[0]}}`, http.StatusBadRequest, CodeInvalidOptions},
		// Planned before it ran, a job with a zero associativity used to
		// divide by zero on its goroutine and take the daemon down.
		{"zero associativity", jsonHdr, `{"kernel":"matadd","options":{"assocs":[0,1]}}`, http.StatusBadRequest, CodeInvalidOptions},
		{"trace kind in JSON body", jsonHdr, `{"kind":"explore-trace"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"alien kind", jsonHdr, `{"kind":"aggregate","kernel":"matadd"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"bad header options", http.Header{OptionsHeader: {`{"bogus":1}`}}, "0 10\n", http.StatusBadRequest, CodeInvalidOptions},
		{"bad kind in header", http.Header{OptionsHeader: {`{"kind":"explore"}`}}, "0 10\n", http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doJSON(t, s, "POST", "/v1/jobs", tc.header, []byte(tc.body))
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.status, w.Body)
			}
			if e := decodeError(t, w); e.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Code, tc.code)
			}
		})
	}
}

// TestJobUnknownID: all three job readers 404 with the envelope.
func TestJobUnknownID(t *testing.T) {
	s := newTestServer(t)
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/jobs/zzz"},
		{"DELETE", "/v1/jobs/zzz"},
		{"GET", "/v1/jobs/zzz/events"},
	} {
		w := doJSON(t, s, req.method, req.path, nil, nil)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", req.method, req.path, w.Code)
			continue
		}
		if e := decodeError(t, w); e.Code != CodeUnknownJob {
			t.Errorf("%s %s code = %q", req.method, req.path, e.Code)
		}
	}
}

// TestJobsDraining: Shutdown waits for accepted jobs and rejects new
// submissions with 503.
func TestJobsDraining(t *testing.T) {
	s := newTestServer(t)
	din := bigDin(t, 100000)
	w := doJSON(t, s, "POST", "/v1/jobs", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	rec := decodeRecord(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with running job: %v", err)
	}
	// The drain outlasted the job: it must be terminal and done.
	if got := decodeRecord(t, doJSON(t, s, "GET", "/v1/jobs/"+rec.ID, nil, nil)); got.State != jobs.StateDone {
		t.Fatalf("drained job = %s", got.State)
	}
	// New submissions bounce.
	w2 := doJSON(t, s, "POST", "/v1/jobs", http.Header{"Content-Type": {"application/json"}}, []byte(`{"kernel":"matadd"}`))
	if w2.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d", w2.Code)
	}
	if e := decodeError(t, w2); e.Code != CodeDraining {
		t.Errorf("code = %q", e.Code)
	}
}

// TestSyncAndJobShareResultTier: a sync request and a job for the same
// work share one content key. A sync result answers a later identical
// job, which comes back as a Cached record; a job's result answers a
// later sync request. Every body is byte-identical to a fresh run except
// the cached flag, and a request that differs only in a bound is a miss.
func TestSyncAndJobShareResultTier(t *testing.T) {
	jsonHdr := http.Header{"Content-Type": {"application/json"}}
	fresh := func(body string) string {
		t.Helper()
		w := postJSON(t, newTestServer(t), "/v1/explore", body)
		if w.Code != http.StatusOK {
			t.Fatalf("fresh run = %d: %s", w.Code, w.Body)
		}
		return strings.TrimSuffix(w.Body.String(), "\n")
	}
	s := newTestServer(t)

	syncFirst := fmt.Sprintf(`{"kernel":"matadd","options":%s,"cycle_bound":1e9}`, tinyOptionsJSON)
	w := postJSON(t, s, "/v1/explore", syncFirst)
	if w.Code != http.StatusOK {
		t.Fatalf("sync = %d: %s", w.Code, w.Body)
	}
	want := fresh(syncFirst)
	if got := strings.TrimSuffix(w.Body.String(), "\n"); got != want {
		t.Fatalf("sync miss differs from a fresh run:\n got %s\nwant %s", got, want)
	}
	rec := decodeRecord(t, doJSON(t, s, "POST", "/v1/jobs", jsonHdr, []byte(syncFirst)))
	if rec.State != jobs.StateDone || !rec.Cached {
		t.Fatalf("job after an identical sync request = state %s cached %v, want a recalled record", rec.State, rec.Cached)
	}
	if string(rec.Result) != want {
		t.Fatalf("recalled job result differs from a fresh run:\n got %s\nwant %s", rec.Result, want)
	}

	jobFirst := fmt.Sprintf(`{"kernel":"dequant","options":%s}`, tinyOptionsJSON)
	job := awaitJob(t, s, decodeRecord(t, doJSON(t, s, "POST", "/v1/jobs", jsonHdr, []byte(jobFirst))).ID)
	if job.State != jobs.StateDone || job.Cached {
		t.Fatalf("first job = state %s cached %v", job.State, job.Cached)
	}
	w = postJSON(t, s, "/v1/explore", jobFirst)
	if !decodeExplore(t, w).Cached {
		t.Fatal("sync request after an identical job missed the result tier")
	}
	got := strings.Replace(strings.TrimSuffix(w.Body.String(), "\n"), `"cached":true`, `"cached":false`, 1)
	if want := fresh(jobFirst); got != want || string(job.Result) != want {
		t.Fatalf("recalled sync body or job result differs from a fresh run:\nsync %s\n job %s\nwant %s", got, job.Result, want)
	}

	// The bounds shape Best, so they are part of the key.
	rebound := fmt.Sprintf(`{"kernel":"matadd","options":%s,"cycle_bound":2e9}`, tinyOptionsJSON)
	if decodeExplore(t, postJSON(t, s, "/v1/explore", rebound)).Cached {
		t.Error("request differing only in cycle_bound was recalled")
	}
}

// TestShutdownDrainsSyncAndJob: Shutdown's one drain path waits for an
// in-flight sync sweep and a running job alike.
func TestShutdownDrainsSyncAndJob(t *testing.T) {
	s := MustNew(Config{MaxConcurrentSweeps: 2, MaxBodyBytes: 64 << 20})
	din := bigDin(t, 2_000_000)
	hdr := http.Header{OptionsHeader: {traceHeaderJSON}}
	busy := vars.inFlight.Value()

	w := doJSON(t, s, "POST", "/v1/jobs", hdr, din)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	rec := decodeRecord(t, w)
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { syncDone <- doJSON(t, s, "POST", "/v1/explore-trace", hdr, din) }()
	deadline := time.Now().Add(30 * time.Second)
	for vars.inFlight.Value()-busy < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the sync sweep and the job never held slots together")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := vars.inFlight.Value() - busy; got != 0 {
		t.Errorf("%d slots still held after Shutdown returned", got)
	}
	if got := decodeRecord(t, doJSON(t, s, "GET", "/v1/jobs/"+rec.ID, nil, nil)); got.State != jobs.StateDone {
		t.Errorf("drained job = %s", got.State)
	}
	if w := <-syncDone; w.Code != http.StatusOK {
		t.Errorf("drained sync sweep = %d: %s", w.Code, w.Body)
	}
}
