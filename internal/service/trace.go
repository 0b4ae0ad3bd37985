package service

// POST /v1/explore-trace: the external-trace sweep. Unlike the JSON
// endpoints the request body IS the trace — textual din or mxt binary,
// gzip transparently detected — streamed straight into the single-pass
// batched sweep without ever being materialized, so the body-size limit
// (not memory) bounds the trace. Sweep options ride in the
// X-Memexplore-Options header as a TraceRequest JSON document; a query
// string is rejected, so a client of the removed query-string form fails
// loudly instead of sweeping the default space.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
)

// OptionsHeader carries a TraceRequest JSON document on endpoints whose
// request body is the trace itself and therefore cannot hold options.
const OptionsHeader = "X-Memexplore-Options"

// TraceRequest is the JSON options form of a trace sweep — the
// X-Memexplore-Options header value on /v1/explore-trace and on trace
// job submissions. Options goes through the same decoder as the JSON
// endpoints (full core.Options overlay, unknown fields rejected).
type TraceRequest struct {
	// Kind optionally names the request shape; "explore-trace" here.
	Kind string `json:"kind,omitempty"`
	// Options overrides DefaultOptions field-by-field, exactly as in
	// ExploreRequest.
	Options json.RawMessage `json:"options,omitempty"`
	// MaxRecords/SkipMalformed configure trace ingest (extrace.Options).
	MaxRecords    int64 `json:"max_records,omitempty"`
	SkipMalformed bool  `json:"skip_malformed,omitempty"`
	// CycleBound/EnergyBoundNJ add the paper's bounded selections.
	CycleBound    float64 `json:"cycle_bound,omitempty"`
	EnergyBoundNJ float64 `json:"energy_bound_nj,omitempty"`
	// Workers requests a simulation worker count (0 = server default);
	// clamped to the server-side cap.
	Workers int `json:"workers,omitempty"`
	// Shards requests distributed execution: the sweep's pass units are
	// partitioned into up to this many disjoint shards, shard 0 runs
	// locally and the rest are dispatched to the configured peer replicas
	// as child jobs, with per-shard metrics merged into a result
	// bit-identical to the local run. -1 means auto (one shard per
	// replica: peers + 1); 0 and 1 mean plain local execution.
	Shards int `json:"shards,omitempty"`
	// Shard marks a shard-execution request — the internal
	// coordinator-to-peer form. The receiving replica re-derives the
	// deterministic shard plan from (options, Shard.Count) and sweeps
	// only the pass units of Shard.Index. Mutually exclusive with Shards.
	Shard *ShardSpec `json:"shard,omitempty"`
	// TraceRef, when set, replaces the request body: the SHA-256 content
	// hash (hex) of a trace blob previously published to the shared
	// filesystem job store. The trace-upload-once path of distributed
	// sweeps; unresolvable refs fail with code unknown_trace_ref.
	TraceRef string `json:"trace_ref,omitempty"`
}

// ShardSpec addresses one shard of a distributed sweep's deterministic
// pass-unit partition: shard Index of the Count-way plan.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// maxShards caps the shard count of a distributed sweep: beyond it the
// per-shard pass-unit slices get too thin for the dispatch overhead, and
// an unbounded count is a fan-out amplification hazard.
const maxShards = 64

// TraceExploreResponse is the POST /v1/explore-trace reply (and,
// marshaled, the result body of an "explore-trace" job): one Metrics
// per (T, L, S) configuration plus the ingest-time profile of the trace.
type TraceExploreResponse struct {
	ResultMeta
	Points  int                 `json:"points"`
	Metrics []core.Metrics      `json:"metrics"`
	Best    Best                `json:"best"`
	Ingest  extrace.IngestStats `json:"ingest"`
}

// traceQuery is the resolved option set of an explore-trace request.
type traceQuery struct {
	opts          core.Options
	ing           extrace.Options
	cycleBound    float64
	energyBoundNJ float64
	// workers is the client-requested simulation worker count (0 = server
	// default); the handler clamps it to the server-side cap before it
	// reaches core.Options.Workers.
	workers int
	// shards is the requested distributed shard count (-1 auto, 0/1
	// local); shard is the internal shard-execution spec; traceRef the
	// content hash standing in for the body. See TraceRequest.
	shards   int
	shard    *ShardSpec
	traceRef string
}

// resolveTraceRequest decodes a trace sweep's options from the
// X-Memexplore-Options header; an absent header means all defaults. A
// query string is an error: options travel only in the header.
func resolveTraceRequest(r *http.Request) (traceQuery, error) {
	if r.URL.RawQuery != "" {
		return traceQuery{}, httpError(http.StatusBadRequest, CodeInvalidRequest,
			"query parameters are not accepted; send trace sweep options in the "+OptionsHeader+" header", "")
	}
	header := r.Header.Get(OptionsHeader)
	if header == "" {
		header = "{}"
	}
	var tr TraceRequest
	if err := decodeBody(strings.NewReader(header), &tr); err != nil {
		return traceQuery{}, httpError(http.StatusBadRequest, CodeInvalidOptions,
			OptionsHeader+" header: "+err.Error(), "")
	}
	return resolveTraceOptions(tr)
}

// resolveTraceOptions converts the JSON options form into a traceQuery
// through the same options decoder the JSON endpoints use.
func resolveTraceOptions(tr TraceRequest) (traceQuery, error) {
	if err := checkKind(tr.Kind, KindExploreTrace); err != nil {
		return traceQuery{}, err
	}
	if tr.Workers < 0 {
		return traceQuery{}, &core.ErrInvalidOptions{Field: "workers", Reason: "workers must be ≥ 0 (0 = server default)"}
	}
	if tr.Shards < -1 || tr.Shards > maxShards {
		return traceQuery{}, &core.ErrInvalidOptions{Field: "shards",
			Reason: fmt.Sprintf("shards must be between -1 (auto) and %d, got %d", maxShards, tr.Shards)}
	}
	if tr.Shard != nil {
		if tr.Shards != 0 {
			return traceQuery{}, &core.ErrInvalidOptions{Field: "shard", Reason: "shard (execute one shard) and shards (coordinate a distributed sweep) are mutually exclusive"}
		}
		if tr.Shard.Count < 1 || tr.Shard.Count > maxShards || tr.Shard.Index < 0 || tr.Shard.Index >= tr.Shard.Count {
			return traceQuery{}, &core.ErrInvalidOptions{Field: "shard",
				Reason: fmt.Sprintf("shard index must be in [0, count) with count in [1, %d], got %d/%d", maxShards, tr.Shard.Index, tr.Shard.Count)}
		}
	}
	if tr.TraceRef != "" && !isHex64(tr.TraceRef) {
		return traceQuery{}, &core.ErrInvalidOptions{Field: "trace_ref", Reason: "trace_ref must be a 64-character lowercase hex SHA-256"}
	}
	opts, err := resolveOptions(tr.Options)
	if err != nil {
		return traceQuery{}, err
	}
	return traceQuery{
		opts:          opts,
		ing:           extrace.Options{MaxRecords: tr.MaxRecords, SkipMalformed: tr.SkipMalformed},
		cycleBound:    tr.CycleBound,
		energyBoundNJ: tr.EnergyBoundNJ,
		workers:       tr.Workers,
		shards:        tr.Shards,
		shard:         tr.Shard,
		traceRef:      tr.TraceRef,
	}, nil
}

// isHex64 reports whether s is a 64-char lowercase hex string (a SHA-256).
func isHex64(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleExploreTrace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vars.requests.Add(1)
	defer func() { vars.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	if s.rejectDraining(w) {
		return
	}
	tq, err := resolveTraceRequest(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var body io.Reader = r.Body
	if tq.traceRef != "" {
		data, err := s.resolveTraceRef(tq.traceRef)
		if err != nil {
			s.writeError(w, err)
			return
		}
		body = bytes.NewReader(data)
	}
	// Resolve the worker count here so the engine's observer reports the
	// actual shard count through the trace_workers gauge.
	tq.opts.Workers = s.traceWorkerCount(tq.workers)
	resp, err := s.runTrace(r.Context(), body, tq)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceWorkerCount resolves the simulation worker count of one trace
// sweep: the client's workers= request clamped to the server-side cap —
// Config.SweepWorkers when set, else GOMAXPROCS. A request of 0 (or no
// workers= at all) selects the cap.
func (s *Server) traceWorkerCount(requested int) int {
	cap := s.cfg.SweepWorkers
	if cap <= 0 {
		cap = runtime.GOMAXPROCS(0)
	}
	if requested <= 0 || requested > cap {
		return cap
	}
	return requested
}

// runTrace executes one streaming trace sweep end-to-end — slots,
// expvar accounting, envelope. The sync handler and the async job body
// both call it, which is what keeps their results byte-identical. A
// distributed request (shards ≥ 2 effective) takes the coordinator path,
// which yields merged metrics bit-identical to the local sweep and then
// flows through the very same envelope assembly below. Trace bodies
// stream, so sync trace sweeps are never recalled; trace jobs are,
// through the key their submission computes.
func (s *Server) runTrace(ctx context.Context, body io.Reader, tq traceQuery) (*TraceExploreResponse, error) {
	begin := time.Now()
	var (
		ms  []core.Metrics
		st  extrace.IngestStats
		err error
	)
	if n := s.effectiveShards(tq); n >= 2 {
		ms, st, err = s.distTraceSweep(ctx, body, tq, n)
	} else {
		ms, st, err = s.traceSweep(ctx, body, tq)
	}
	if err != nil {
		return nil, err
	}
	vars.points.Add(int64(len(ms)))
	vars.workloads.Add(1) // one pass over one external trace
	if saved := len(ms) - 1; saved > 0 {
		vars.passesSaved.Add(int64(saved))
	}
	meta := ResultMeta{Engine: core.EngineBatched.String()}
	if plan, perr := core.TraceSweepPlan(tq.opts); perr == nil {
		vars.inclusionGroups.Add(int64(plan.InclusionGroups))
		if u := plan.PassUnits(); u > 0 {
			vars.configsPerPass.Set(float64(plan.Points) / float64(u))
		}
		meta = resultMeta(false, tq.opts, plan, 1)
	}
	if len(ms) > 0 && (ms[0].SampleRate > 0 || ms[0].SampledRecords > 0) {
		var maxCI float64
		for _, m := range ms {
			if m.MissRateCI > maxCI {
				maxCI = m.MissRateCI
			}
		}
		meta.Sample = &SampleInfo{
			Rate:           ms[0].SampleRate,
			Seed:           tq.opts.SampleSeed,
			SampledRecords: ms[0].SampledRecords,
			SkippedShare:   ms[0].SkippedShare,
			MissRateCIMax:  maxCI,
			ChunksSkipped:  st.ChunksSkipped,
		}
		if st.StoredSampleRate > 0 {
			// A transcode-sampled artifact: the effective rate and seed are
			// the ones recorded in its footer, not the request's.
			meta.Sample.Stored = true
			meta.Sample.Seed = st.StoredSampleSeed
		}
		vars.traceSampledRecords.Add(ms[0].SampledRecords)
		vars.traceSampleRate.Set(ms[0].SampleRate)
	} else {
		vars.traceSampleRate.Set(0)
	}
	if secs := time.Since(begin).Seconds(); secs > 0 {
		vars.lastPointsPerSec.Set(float64(len(ms)) / secs)
	}
	return &TraceExploreResponse{
		ResultMeta: meta,
		Points:     len(ms),
		Metrics:    ms,
		Best:       bestOf(ms, tq.cycleBound, tq.energyBoundNJ),
		Ingest:     st,
	}, nil
}

// traceSweep runs the streaming sweep on a runner slot — the caller's
// own when it already holds one (a job body) — and consumes the body
// inside it. Ingest counters are recorded here so even failed sweeps
// account the bytes and records they consumed.
func (s *Server) traceSweep(ctx context.Context, body io.Reader, tq traceQuery) (ms []core.Metrics, st extrace.IngestStats, err error) {
	_, _, err = s.runner.Do(ctx, "", func(ctx context.Context) ([]byte, error) {
		ms, st, err = sweepTraceBody(ctx, body, tq)
		return nil, err
	})
	return ms, st, err
}

// sweepTraceBody is traceSweep's work, run while holding the slot.
func sweepTraceBody(ctx context.Context, body io.Reader, tq traceQuery) ([]core.Metrics, extrace.IngestStats, error) {
	// Dominant-block prefiltering reads the stream twice; an HTTP body
	// cannot rewind, so spool it to a temp file first. Job bodies arrive
	// as bytes.Readers and skip the spool.
	if tq.opts.DominantEps > 0 {
		if _, ok := body.(io.Seeker); !ok {
			f, err := os.CreateTemp("", "memexplore-trace-*")
			if err != nil {
				return nil, extrace.IngestStats{}, fmt.Errorf("service: spooling trace for the dominant-block prepass: %w", err)
			}
			defer os.Remove(f.Name())
			defer f.Close()
			if _, err := io.Copy(f, body); err != nil {
				// A MaxBytesError from the HTTP body limit propagates here.
				return nil, extrace.IngestStats{}, err
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return nil, extrace.IngestStats{}, fmt.Errorf("service: rewinding spooled trace: %w", err)
			}
			body = f
		}
	}

	var (
		ms  []core.Metrics
		st  extrace.IngestStats
		err error
	)
	if tq.shard != nil {
		// Shard execution (the peer side of a distributed sweep): same
		// stream, same filters, but the engine owns only the shard's pass
		// units. Metrics come back in the shard's own point order.
		ms, st, err = core.ExploreTraceShard(ctx, body, tq.opts, tq.ing, tq.shard.Index, tq.shard.Count)
	} else {
		ms, st, err = core.ExploreTraceReader(ctx, body, tq.opts, tq.ing)
	}
	vars.traceBytesRead.Add(st.BytesRead)
	vars.traceRecords.Add(st.Records)
	vars.traceRejects.Add(st.Rejects)
	vars.traceChunksSkipped.Add(st.ChunksSkipped)
	return ms, st, err
}
