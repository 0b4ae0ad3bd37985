package service

import (
	"expvar"
	"fmt"
	"sync/atomic"
)

// Service counters, published once per process under the "memexplored"
// expvar map (GET /debug/vars). expvar registration is global, so all
// Server instances in a process share one counter set; tests read deltas.
type counters struct {
	requests    expvar.Int // requests to the sweep endpoints
	cacheHits   expvar.Int // requests and job submissions answered from the result tier
	cacheMisses expvar.Int // requests and job submissions that had to run a sweep
	inFlight    expvar.Int // runner slots currently held by sweeps (sync and jobs)
	points      expvar.Int // config points evaluated by completed sweeps
	workloads   expvar.Int // distinct workload traces generated/traversed
	passesSaved expvar.Int // trace passes avoided by workload batching (points − workloads)
	canceled    expvar.Int // requests abandoned by the client mid-sweep
	failed      expvar.Int // requests rejected or errored
	// External-trace ingestion totals (/v1/explore-trace), accumulated
	// from the per-request IngestStats — including failed requests, which
	// report whatever was ingested before the error.
	traceBytesRead expvar.Int // wire bytes read from trace bodies
	traceRecords   expvar.Int // trace records accepted into sweeps
	traceRejects   expvar.Int // malformed records skipped (skip mode)
	// traceSampledRecords totals the records actually simulated by
	// sampled/prefiltered trace sweeps (a counter); traceSampleRate is the
	// configured sampling rate of the most recent such sweep (a gauge, 0
	// when the last trace sweep was exact).
	traceSampledRecords expvar.Int
	traceSampleRate     expvar.Float
	// traceChunksSkipped totals the mxt v2 chunks stepped over via the
	// MXTI01 index instead of decoded (a counter).
	traceChunksSkipped expvar.Int
	// inclusionGroups counts the (workload, line, sets) groups the
	// inclusion engine collapsed into single LRU stack passes across
	// completed sweeps.
	inclusionGroups expvar.Int
	latency         latencyHist
	// lastPointsPerSec is the throughput of the most recently completed
	// (uncached) sweep — a gauge, not a cumulative counter.
	lastPointsPerSec expvar.Float
	// configsPerPass is the plan amplification of the most recently
	// completed (uncached) sweep: points per simulation pass unit
	// (inclusion groups + fallback configurations) — a gauge.
	configsPerPass expvar.Float
	// Async job subsystem (internal/jobs). Submitted/completed/failed/
	// canceled are lifetime counters; queued/running are gauges of the
	// current pool state. Submissions recalled from the result tier count
	// in cacheHits.
	jobsSubmitted expvar.Int
	jobsCompleted expvar.Int
	jobsFailed    expvar.Int
	jobsCanceled  expvar.Int
	jobsQueued    expvar.Int
	jobsRunning   expvar.Int
	// Distributed sweeps (the cross-replica coordinator). Shards counts
	// shard legs dispatched (local and remote alike); peerFailures counts
	// peer legs that errored and fell back to local execution;
	// bytesShipped totals trace bytes sent to peers over the wire (blob
	// handoffs through a shared store don't count — that is the point).
	distShardsDispatched expvar.Int
	distPeerFailures     expvar.Int
	distBytesShipped     expvar.Int
	// Guided search (internal/search, /v1/search). Runs counts completed
	// (uncached) searches; evaluations/generations/memoHits accumulate
	// their per-run totals, so evaluations/runs is the mean budget spend
	// and memoHits/evaluations the revisit amplification.
	searchRuns        expvar.Int
	searchEvaluations expvar.Int
	searchGenerations expvar.Int
	searchMemoHits    expvar.Int
}

var vars = func() *counters {
	c := &counters{}
	m := expvar.NewMap("memexplored")
	m.Set("requests", &c.requests)
	m.Set("cache_hits", &c.cacheHits)
	m.Set("cache_misses", &c.cacheMisses)
	m.Set("in_flight_sweeps", &c.inFlight)
	m.Set("points_evaluated", &c.points)
	m.Set("workloads_explored", &c.workloads)
	m.Set("trace_passes_saved", &c.passesSaved)
	m.Set("canceled", &c.canceled)
	m.Set("failed", &c.failed)
	m.Set("trace_bytes_read", &c.traceBytesRead)
	m.Set("trace_records", &c.traceRecords)
	m.Set("trace_rejects", &c.traceRejects)
	m.Set("trace_sampled_records", &c.traceSampledRecords)
	m.Set("trace_sample_rate", &c.traceSampleRate)
	m.Set("trace_chunks_skipped", &c.traceChunksSkipped)
	m.Set("inclusion_groups", &c.inclusionGroups)
	m.Set("latency_ms", &c.latency)
	m.Set("last_sweep_points_per_sec", &c.lastPointsPerSec)
	m.Set("configs_per_pass", &c.configsPerPass)
	m.Set("jobs_submitted", &c.jobsSubmitted)
	m.Set("jobs_completed", &c.jobsCompleted)
	m.Set("jobs_failed", &c.jobsFailed)
	m.Set("jobs_canceled", &c.jobsCanceled)
	m.Set("jobs_queued", &c.jobsQueued)
	m.Set("jobs_running", &c.jobsRunning)
	m.Set("dist_shards_dispatched", &c.distShardsDispatched)
	m.Set("dist_peer_failures", &c.distPeerFailures)
	m.Set("dist_bytes_shipped", &c.distBytesShipped)
	m.Set("search_runs", &c.searchRuns)
	m.Set("search_evaluations", &c.searchEvaluations)
	m.Set("search_generations", &c.searchGenerations)
	m.Set("search_memo_hits", &c.searchMemoHits)
	return c
}()

// latencyBoundsMS are the histogram bucket upper bounds in
// milliseconds; the final implicit bucket is +Inf.
var latencyBoundsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// latencyHist is a fixed-bucket duration histogram with p50/p99
// readouts; its zero value is ready to use. Quantiles are estimated as
// the upper bound of the bucket containing the quantile rank — coarse,
// but monotone and lock-free.
type latencyHist struct {
	buckets [len(latencyBoundsMS) + 1]atomic.Int64 // last = overflow
	count   atomic.Int64
}

// Observe records one duration in milliseconds.
func (h *latencyHist) Observe(ms float64) {
	i := 0
	for i < len(latencyBoundsMS) && ms > latencyBoundsMS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
}

// Quantile returns the upper bound of the bucket containing quantile q
// (0 < q ≤ 1), or 0 when nothing has been observed.
func (h *latencyHist) Quantile(q float64) float64 {
	bounds := latencyBoundsMS[:]
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i <= len(bounds); i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1] // overflow bucket
		}
	}
	return bounds[len(bounds)-1]
}

// String renders the histogram as the expvar JSON value: cumulative
// counts per bucket plus the derived p50/p99.
func (h *latencyHist) String() string {
	out := `{"count":` + fmt.Sprint(h.count.Load())
	out += fmt.Sprintf(`,"p50_ms":%g,"p99_ms":%g,"buckets":{`, h.Quantile(0.50), h.Quantile(0.99))
	for i, b := range latencyBoundsMS {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(`"le_%g":%d`, b, h.buckets[i].Load())
	}
	out += fmt.Sprintf(`,"le_inf":%d}}`, h.buckets[len(latencyBoundsMS)].Load())
	return out
}
