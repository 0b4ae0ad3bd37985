package service

// The distributed sweep coordinator. A trace request with shards = N
// (≥ 2 effective) is split by the deterministic pass-unit partition
// core.TraceShardPlan derives from (options, N): shard 0 always runs in
// this process, the remaining shards are dispatched round-robin to the
// configured peer replicas as ordinary child jobs on the existing
// /v1/jobs wire — a TraceRequest whose Shard field addresses one slice
// of the plan. Peers re-derive the identical plan from the options, so
// the wire carries an index and a count, never a config list. When this
// replica has a shared filesystem job store, the trace body is published
// there once as a content-hash blob and children carry only the
// trace_ref; a peer that cannot resolve the ref (separate store, blob
// reaped) answers unknown_trace_ref and the coordinator re-ships the
// body to that peer only. Any other peer failure falls back to local
// execution of that shard, so a dead peer degrades throughput, never
// correctness. Merged metrics are bit-identical to the single-process
// sweep — the property the whole design is built around (see
// core/distsweep.go) — and the coordinator's own shard 0 pass supplies
// the IngestStats, which every shard computes identically.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/jobs"
)

// peerPollInterval paces child-job status polling. Peers are LAN-local
// replicas; a short interval keeps shard latency low without SSE
// plumbing.
const peerPollInterval = 20 * time.Millisecond

// effectiveShards resolves a request's distributed shard count: the
// explicit shards value, with -1 (auto) meaning one shard per replica
// (this one plus every peer). 0 or 1 — and any shard-execution request,
// which must never re-distribute — mean plain local execution.
func (s *Server) effectiveShards(tq traceQuery) int {
	if tq.shard != nil {
		return 0
	}
	n := tq.shards
	if n == -1 {
		n = len(s.cfg.Peers) + 1
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// resolveTraceRef fetches the trace blob a request's trace_ref names
// from the shared filesystem store.
func (s *Server) resolveTraceRef(ref string) ([]byte, error) {
	if s.fsStore == nil {
		return nil, httpError(http.StatusNotFound, CodeUnknownTraceRef,
			"trace_ref requires a shared filesystem job store (run with -jobs-dir)", "")
	}
	data, ok, err := s.fsStore.GetBlob(ref)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, httpError(http.StatusNotFound, CodeUnknownTraceRef,
			fmt.Sprintf("no trace blob %s in the shared store", ref), "")
	}
	return data, nil
}

// jobReporterKey carries the async job's *jobs.Reporter on the context,
// so the coordinator can register dispatched child jobs on the parent
// record (store cleanup cascades through them).
type jobReporterKey struct{}

func withJobReporter(ctx context.Context, rep *jobs.Reporter) context.Context {
	return context.WithValue(ctx, jobReporterKey{}, rep)
}

func jobReporterFrom(ctx context.Context) *jobs.Reporter {
	rep, _ := ctx.Value(jobReporterKey{}).(*jobs.Reporter)
	return rep
}

// distTraceSweep is the coordinator: buffer the trace, publish it to the
// shared blob tier, fan each shard of the n-way plan out to an executor
// (local for shard 0 and whenever there are no peers; a peer child job
// otherwise, with local fallback on failure), and merge the per-shard
// metrics back into Space() order. The merged result is bit-identical to
// traceSweep's on the same bytes. Each local leg is a traceSweep, so in
// a sync request it holds a slot only while it sweeps, never while the
// coordinator polls a peer; in a job every leg runs on the job's slot.
func (s *Server) distTraceSweep(ctx context.Context, body io.Reader, tq traceQuery, n int) ([]core.Metrics, extrace.IngestStats, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, extrace.IngestStats{}, err
	}
	plan, err := core.TraceShardPlan(tq.opts, n)
	if err != nil {
		return nil, extrace.IngestStats{}, err
	}
	if len(plan) < 2 {
		// The sweep has a single pass unit: nothing to distribute.
		return s.traceSweep(ctx, bytes.NewReader(data), tq)
	}

	blobRef := ""
	if s.fsStore != nil && len(s.cfg.Peers) > 0 {
		sum := sha256.Sum256(data)
		ref := hex.EncodeToString(sum[:])
		if err := s.fsStore.PutBlob(ref, data); err == nil {
			blobRef = ref // best-effort: on failure the body ships instead
		}
	}

	progress := core.ProgressFromContext(ctx)
	rep := jobReporterFrom(ctx)
	type legResult struct {
		ms  []core.Metrics
		st  extrace.IngestStats
		err error
	}
	legs := make([]legResult, len(plan))
	var wg sync.WaitGroup
	for i := range plan {
		peer := ""
		if i > 0 && len(s.cfg.Peers) > 0 {
			peer = s.cfg.Peers[(i-1)%len(s.cfg.Peers)]
		}
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			vars.distShardsDispatched.Add(1)
			if peer != "" {
				ms, err := s.peerShard(ctx, peer, data, blobRef, tq, i, n, rep)
				if err == nil {
					legs[i] = legResult{ms: ms}
					if progress != nil {
						progress(core.ProgressEvent{Points: int64(len(plan[i]))})
					}
					return
				}
				if ctx.Err() != nil {
					// Canceled, not a peer fault; don't burn a local pass.
					legs[i] = legResult{err: err}
					return
				}
				vars.distPeerFailures.Add(1)
			}
			// Local execution: shard 0 always, peerless shards, and the
			// fallback leg of a failed peer dispatch.
			tqs := tq
			tqs.shards = 0
			tqs.shard = &ShardSpec{Index: i, Count: n}
			ms, st, err := s.traceSweep(ctx, bytes.NewReader(data), tqs)
			legs[i] = legResult{ms: ms, st: st, err: err}
			if err == nil && progress != nil {
				progress(core.ProgressEvent{Points: int64(len(plan[i]))})
			}
		}(i, peer)
	}
	wg.Wait()

	parts := make([][]core.Metrics, len(plan))
	var st extrace.IngestStats
	haveStats := false
	for i := range legs {
		if legs[i].err != nil {
			return nil, extrace.IngestStats{}, legs[i].err
		}
		parts[i] = legs[i].ms
		if !haveStats && legs[i].st.Records > 0 {
			// Every shard ingests the identical stream, so any local leg's
			// stats stand for the whole sweep; shard 0 is always local.
			st = legs[i].st
			haveStats = true
		}
	}
	merged, err := core.MergeTraceShards(tq.opts, n, parts)
	if err != nil {
		return nil, extrace.IngestStats{}, err
	}
	return merged, st, nil
}

// peerError is a failure reported by a peer replica's error envelope,
// preserving the machine-readable code for retry decisions.
type peerError struct {
	status int
	detail ErrorDetail
}

func (e *peerError) Error() string {
	return fmt.Sprintf("peer replied %d %s: %s", e.status, e.detail.Code, e.detail.Message)
}

// isUnknownTraceRef reports whether err is a peer rejecting a trace_ref
// it cannot resolve — the one failure the coordinator retries with the
// full body instead of falling back to local execution.
func isUnknownTraceRef(err error) bool {
	var pe *peerError
	return errors.As(err, &pe) && pe.detail.Code == CodeUnknownTraceRef
}

// shardHeader builds the X-Memexplore-Options document of a child shard
// job: the parent's normalized options (Workers and Engine are local
// knobs outside the wire form, so the peer resolves its own), the ingest
// limits that shape the metrics, and the shard address. Bounds are
// omitted: Best is recomputed by the coordinator over the merged sweep.
func shardHeader(tq traceQuery, index, count int, traceRef string) string {
	return mustJSON(TraceRequest{
		Kind:          KindExploreTrace,
		Options:       json.RawMessage(mustJSON(tq.opts)),
		MaxRecords:    tq.ing.MaxRecords,
		SkipMalformed: tq.ing.SkipMalformed,
		Shard:         &ShardSpec{Index: index, Count: count},
		TraceRef:      traceRef,
	})
}

// peerShard runs one shard on a peer replica: submit the child job
// (trace_ref first when a blob was published, body on unknown_trace_ref
// or when there is no shared store), poll it to a terminal state, and
// decode the shard metrics. Parent cancellation propagates: the child
// job is canceled on the peer before the error returns.
func (s *Server) peerShard(ctx context.Context, peer string, body []byte, blobRef string, tq traceQuery, index, count int, rep *jobs.Reporter) ([]core.Metrics, error) {
	var rec jobs.Record
	var err error
	if blobRef != "" {
		rec, err = s.submitPeerJob(ctx, peer, shardHeader(tq, index, count, blobRef), nil)
		if isUnknownTraceRef(err) {
			blobRef = "" // peer cannot see the blob: ship the bytes below
		} else if err != nil {
			return nil, err
		}
	}
	if blobRef == "" {
		rec, err = s.submitPeerJob(ctx, peer, shardHeader(tq, index, count, ""), body)
		if err != nil {
			return nil, err
		}
		vars.distBytesShipped.Add(int64(len(body)))
	}
	if rep != nil {
		rep.AddChild(rec.ID)
	}
	rec, err = s.awaitPeerJob(ctx, peer, rec.ID)
	if err != nil {
		return nil, err
	}
	switch rec.State {
	case jobs.StateDone:
		var resp TraceExploreResponse
		if err := json.Unmarshal(rec.Result, &resp); err != nil {
			return nil, fmt.Errorf("service: decoding shard %d/%d result from %s: %w", index, count, peer, err)
		}
		return resp.Metrics, nil
	case jobs.StateFailed:
		d := ErrorDetail{Code: CodeInternal, Message: "shard job failed without detail"}
		if rec.Error != nil {
			d = ErrorDetail{Code: rec.Error.Code, Message: rec.Error.Message, Field: rec.Error.Field}
		}
		return nil, &peerError{status: http.StatusInternalServerError, detail: d}
	default: // canceled on the peer (operator action): treat as peer failure
		return nil, fmt.Errorf("service: shard %d/%d job on %s ended %s", index, count, peer, rec.State)
	}
}

// submitPeerJob POSTs a child shard job to a peer's /v1/jobs.
func (s *Server) submitPeerJob(ctx context.Context, peer, header string, body []byte) (jobs.Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobs.Record{}, fmt.Errorf("service: building peer submission: %w", err)
	}
	req.Header.Set(OptionsHeader, header)
	return s.doPeerJob(req, http.StatusAccepted)
}

// awaitPeerJob polls a child job to a terminal state. On parent
// cancellation it cancels the child on the peer (best effort, fresh
// context — the parent's is already dead) before returning.
func (s *Server) awaitPeerJob(ctx context.Context, peer, id string) (jobs.Record, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/jobs/"+id, nil)
		if err != nil {
			return jobs.Record{}, fmt.Errorf("service: building peer poll: %w", err)
		}
		rec, err := s.doPeerJob(req, http.StatusOK)
		if err != nil {
			if ctx.Err() != nil {
				s.cancelPeerJob(peer, id)
				return jobs.Record{}, fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
			}
			return jobs.Record{}, err
		}
		if rec.State.Terminal() {
			return rec, nil
		}
		select {
		case <-time.After(peerPollInterval):
		case <-ctx.Done():
			s.cancelPeerJob(peer, id)
			return jobs.Record{}, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
		}
	}
}

// cancelPeerJob DELETEs a child job on its peer under a short fresh
// deadline; failures are ignored — the peer's own lifecycle (or the
// store janitor) collects orphans eventually.
func (s *Server) cancelPeerJob(peer, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, peer+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := s.peerClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// doPeerJob executes one peer request and decodes the job record reply,
// mapping non-success statuses through the peer's error envelope.
func (s *Server) doPeerJob(req *http.Request, wantStatus int) (jobs.Record, error) {
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return jobs.Record{}, fmt.Errorf("service: reaching peer %s: %w", req.URL.Host, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return jobs.Record{}, fmt.Errorf("service: reading peer reply: %w", err)
	}
	if resp.StatusCode != wantStatus {
		var eb ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Code != "" {
			return jobs.Record{}, &peerError{status: resp.StatusCode, detail: eb.Error}
		}
		return jobs.Record{}, &peerError{status: resp.StatusCode,
			detail: ErrorDetail{Code: CodeInternal, Message: fmt.Sprintf("unexpected peer status %d", resp.StatusCode)}}
	}
	var rec jobs.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return jobs.Record{}, fmt.Errorf("service: decoding peer job record: %w", err)
	}
	return rec, nil
}
