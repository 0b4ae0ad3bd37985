package service

// The async job surface. POST /v1/jobs accepts the same request shapes
// as the synchronous sweep endpoints — an ExploreRequest JSON body for
// "explore" jobs, a SearchRequest with "kind": "search" for guided
// NSGA-II searches, or a raw trace body with a TraceRequest in the
// X-Memexplore-Options header for "explore-trace" jobs — validates them
// synchronously (bad requests still fail with their normal envelope and
// status), and returns 202 with the queued job record. The job then
// runs on the internal/jobs pool, reporting progress through the core
// pipeline's per-context observer; clients poll GET /v1/jobs/{id} or
// stream GET /v1/jobs/{id}/events (SSE) and cancel with DELETE.
//
// A job's result is the byte-for-byte body the synchronous endpoint
// would have written (same body functions, same encoder settings). Jobs
// and sync requests share one content key per request and one result
// tier, so identical work — submitted or requested — is answered
// instantly (Cached=true), and replicas sharing a filesystem store
// (Config.JobsDir) share that tier.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"memexplore/internal/core"
	"memexplore/internal/jobs"
)

// mapJobError converts a job error into its stored Failure using the
// same table as the synchronous error envelope, so async failures carry
// exactly the sync error codes.
func mapJobError(err error) jobs.Failure {
	_, d := errorDetail(err)
	return jobs.Failure{Code: d.Code, Message: d.Message, Field: d.Field}
}

// runnerHooks wires the runner's job lifecycle into the jobs_* expvars,
// its slot occupancy into in_flight_sweeps and its result-tier lookups
// into cache_hits/cache_misses.
func runnerHooks() jobs.Hooks {
	return jobs.Hooks{
		Submitted: func() { vars.jobsSubmitted.Add(1) },
		Queued:    func(d int64) { vars.jobsQueued.Add(d) },
		Running:   func(d int64) { vars.jobsRunning.Add(d) },
		Completed: func() { vars.jobsCompleted.Add(1) },
		Failed:    func() { vars.jobsFailed.Add(1) },
		Canceled:  func() { vars.jobsCanceled.Add(1) },
		Slots:     func(d int64) { vars.inFlight.Add(d) },
		CacheHit:  func() { vars.cacheHits.Add(1) },
		CacheMiss: func() { vars.cacheMisses.Add(1) },
	}
}

// unknownJob is the 404 for an id the store has never seen (or has
// already expired).
func unknownJob(id string) *requestError {
	return httpError(http.StatusNotFound, CodeUnknownJob, fmt.Sprintf("no job %q", id), "")
}

// reportProgress bridges the core pipeline's per-context progress
// events into the job's reporter.
func reportProgress(ctx context.Context, rep *jobs.Reporter) context.Context {
	return core.WithProgress(ctx, func(ev core.ProgressEvent) {
		rep.Add(ev.Records, ev.Chunks, ev.Points, ev.PassUnits)
	})
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	vars.requests.Add(1)
	if s.rejectDraining(w) {
		return
	}
	if r.Header.Get(OptionsHeader) != "" {
		s.submitTraceJob(w, r)
		return
	}
	// JSON submissions dispatch on their "kind" field. The peek decode is
	// lenient — the per-kind path re-decodes strictly, so unknown fields
	// and malformed bodies still fail with their normal envelope.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, err) // a MaxBytesError maps to 413 body_too_large
		return
	}
	var peek struct {
		Kind string `json:"kind"`
	}
	_ = json.Unmarshal(body, &peek)
	if peek.Kind == KindSearch {
		s.submitSearchJob(w, body)
		return
	}
	s.submitExploreJob(w, body)
}

// submitExploreJob validates an explore request and queues it.
func (s *Server) submitExploreJob(w http.ResponseWriter, body []byte) {
	var req ExploreRequest
	if err := decodeBody(bytes.NewReader(body), &req); err != nil {
		s.writeError(w, invalidRequest(err))
		return
	}
	if req.Kind == KindExploreTrace {
		s.writeError(w, httpError(http.StatusBadRequest, CodeInvalidRequest,
			"explore-trace jobs carry the trace as the request body and their options in the "+OptionsHeader+" header", "kind"))
		return
	}
	if err := checkKind(req.Kind, KindExplore); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := resolveExplore(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rec, err := s.runner.Submit(KindExplore, s.recallKey(p.key), func(ctx context.Context, rep *jobs.Reporter) ([]byte, error) {
		plan := p.opts.Plan()
		rep.SetTotals(int64(plan.Points), int64(plan.PassUnits()))
		return s.exploreBody(reportProgress(ctx, rep), p)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// submitTraceJob validates a trace submission and queues it. The trace
// body is buffered now — it belongs to this request and would be gone
// by the time the job runs — so MaxBodyBytes, not memory, bounds it.
func (s *Server) submitTraceJob(w http.ResponseWriter, r *http.Request) {
	tq, err := resolveTraceRequest(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, err) // a MaxBytesError maps to 413 body_too_large
		return
	}
	if len(body) == 0 && tq.traceRef != "" {
		// A shard job addressing a published trace blob: resolve it now so
		// an unknown ref fails the submission, not the job.
		body, err = s.resolveTraceRef(tq.traceRef)
		if err != nil {
			s.writeError(w, err)
			return
		}
	}
	// Key on the normalized options (before the worker clamp: parallelism
	// never changes the metrics), ingest limits, bounds, the distribution
	// shape — a shard's metrics are a slice of the full sweep's, and a
	// distributed run must not recall a local result (or vice versa) so
	// byte-identity stays observable — and the trace bytes themselves.
	shardSpec := ""
	if tq.shard != nil {
		shardSpec = fmt.Sprintf("%d/%d", tq.shard.Index, tq.shard.Count)
	}
	key := cacheKey("job-trace", mustJSON(tq.opts),
		fmt.Sprint(tq.ing.MaxRecords), fmt.Sprint(tq.ing.SkipMalformed),
		fmt.Sprint(tq.cycleBound), fmt.Sprint(tq.energyBoundNJ),
		fmt.Sprint(tq.shards), shardSpec, string(body))
	tq.opts.Workers = s.traceWorkerCount(tq.workers)
	rec, err := s.runner.Submit(KindExploreTrace, s.recallKey(key), func(ctx context.Context, rep *jobs.Reporter) ([]byte, error) {
		if tq.shard != nil {
			// A shard job's totals are its slice of the plan, not the space.
			if plan, perr := core.TraceShardPlan(tq.opts, tq.shard.Count); perr == nil && tq.shard.Index < len(plan) {
				rep.SetTotals(int64(len(plan[tq.shard.Index])), 0)
			}
		} else if plan, perr := core.TraceSweepPlan(tq.opts); perr == nil {
			rep.SetTotals(int64(plan.Points), int64(plan.PassUnits()))
		}
		ctx = withJobReporter(reportProgress(ctx, rep), rep)
		resp, err := s.runTrace(ctx, bytes.NewReader(body), tq)
		if err != nil {
			return nil, err
		}
		return marshalResult(resp)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	vars.requests.Add(1)
	id := r.PathValue("id")
	rec, ok, err := s.runner.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !ok {
		s.writeError(w, unknownJob(id))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	vars.requests.Add(1)
	id := r.PathValue("id")
	rec, ok, err := s.runner.Cancel(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !ok {
		s.writeError(w, unknownJob(id))
		return
	}
	// Cancellation is asynchronous: the record may still say running.
	// Clients poll or watch the event stream for the canceled state.
	writeJSON(w, http.StatusOK, rec)
}

// handleJobEvents streams a job's record versions as server-sent
// events: "progress" events while the job is live, then one terminal
// event named after the final state (done|failed|canceled) carrying the
// full record — result included — after which the stream ends. Event
// ids are a per-stream sequence; rapid updates may be coalesced, but
// the terminal event is always delivered.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	vars.requests.Add(1)
	id := r.PathValue("id")
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		s.writeError(w, httpError(http.StatusInternalServerError, CodeInternal,
			"response writer does not support streaming", ""))
		return
	}
	// Probe before committing to the stream so an unknown id is a clean
	// JSON 404, not a half-open event stream.
	if _, ok, err := s.runner.Get(id); err != nil || !ok {
		if err == nil {
			err = unknownJob(id)
		}
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	seq := 0
	_, err := s.runner.Watch(r.Context(), id, func(rec jobs.Record) error {
		event := "progress"
		if rec.State.Terminal() {
			event = string(rec.State)
		}
		data, err := marshalResult(rec)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, event, data); err != nil {
			return err
		}
		seq++
		fl.Flush()
		return nil
	})
	_ = err // client gone or job finished; the stream just ends
}
