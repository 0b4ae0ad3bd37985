package service

// The uniform v1 wire envelope. Every endpoint reports failure as
//
//	{"error": {"code": ..., "message": ..., "field": ...}}
//
// with a code from the stable table below, and every successful sweep
// response embeds ResultMeta — the cached flag, the engine that ran,
// and the sweep plan — so clients never parse per-endpoint error shapes
// or guess what executed. One mapping function (errorDetail) converts
// every error the handlers and the async job runner can see into its
// envelope, so the synchronous endpoints and the job subsystem cannot
// drift apart.

import (
	"context"
	"errors"
	"net/http"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/jobs"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/search"
)

// The stable machine-readable error codes of the v1 API. Documented in
// docs/SERVICE.md; tests assert every failure path emits one of these.
const (
	CodeInvalidRequest  = "invalid_request"   // 400: malformed body or missing/contradictory fields
	CodeInvalidKernel   = "invalid_kernel"    // 400: inline source does not parse, validate or run
	CodeUnknownKernel   = "unknown_kernel"    // 404: kernel name not in the registry
	CodeInvalidOptions  = "invalid_options"   // 400: options fail validation (field set)
	CodeInvalidSearch   = "invalid_search"    // 400: search options or budget fail validation (field set)
	CodeInvalidTrace    = "invalid_trace"     // 400: malformed trace record (location in message)
	CodeEmptyTrace      = "empty_trace"       // 400: trace stream held no records
	CodeRecordLimit     = "record_limit"      // 400: trace exceeded max_records
	CodeBodyTooLarge    = "body_too_large"    // 413: request body over the size limit
	CodeUnknownJob      = "unknown_job"       // 404: no job with that id
	CodeUnknownTraceRef = "unknown_trace_ref" // 404: trace_ref names no blob in the shared store
	CodeDraining        = "draining"          // 503: server is shutting down
	CodeCanceled        = "canceled"          // 499: request or job canceled mid-sweep
	CodeInternal        = "internal"          // 500: unexpected engine failure
)

// KnownErrorCodes is the closed set of codes v1 endpoints may emit —
// exported so the envelope test sweep (and API clients' exhaustiveness
// checks) can assert against it.
var KnownErrorCodes = []string{
	CodeInvalidRequest, CodeInvalidKernel, CodeUnknownKernel,
	CodeInvalidOptions, CodeInvalidSearch, CodeInvalidTrace,
	CodeEmptyTrace, CodeRecordLimit, CodeBodyTooLarge, CodeUnknownJob,
	CodeUnknownTraceRef,
	CodeDraining, CodeCanceled, CodeInternal,
}

// requestError is an error that already knows its transport mapping —
// what the request-resolution helpers return so one writer handles all
// failure paths.
type requestError struct {
	status int
	detail ErrorDetail
}

func (e *requestError) Error() string { return e.detail.Message }

// httpError builds a requestError.
func httpError(status int, code, message, field string) *requestError {
	return &requestError{status: status, detail: ErrorDetail{Code: code, Message: message, Field: field}}
}

// errorDetail maps any error the service can encounter — request
// resolution, a synchronous sweep, or an async job — to its transport
// status and envelope detail. This is the single source of truth for
// error codes: the sync handlers and the job runner both route through
// it.
func errorDetail(err error) (int, ErrorDetail) {
	var (
		re     *requestError
		inv    *core.ErrInvalidOptions
		sinv   *search.InvalidError
		tooBig *http.MaxBytesError
		perr   *extrace.ParseError
		run    *loopir.RunError
	)
	switch {
	case errors.As(err, &re):
		return re.status, re.detail
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, ErrorDetail{Code: CodeBodyTooLarge, Message: err.Error()}
	case errors.As(err, &perr):
		return http.StatusBadRequest, ErrorDetail{Code: CodeInvalidTrace, Message: perr.Error()}
	case errors.As(err, &run):
		return http.StatusBadRequest, ErrorDetail{Code: CodeInvalidKernel, Message: run.Error()}
	case errors.Is(err, extrace.ErrRecordLimit):
		return http.StatusBadRequest, ErrorDetail{Code: CodeRecordLimit, Message: err.Error()}
	case errors.Is(err, core.ErrEmptyTrace):
		return http.StatusBadRequest, ErrorDetail{Code: CodeEmptyTrace, Message: err.Error()}
	case errors.Is(err, jobs.ErrDraining):
		return errDraining().status, errDraining().detail
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The context errors come from a sweep abandoned while it waited
		// for a slot.
		return StatusClientClosedRequest, ErrorDetail{Code: CodeCanceled, Message: err.Error()}
	case errors.As(err, &inv):
		return http.StatusBadRequest, ErrorDetail{Code: CodeInvalidOptions, Message: inv.Reason, Field: inv.Field}
	case errors.As(err, &sinv):
		return http.StatusBadRequest, ErrorDetail{Code: CodeInvalidSearch, Message: sinv.Reason, Field: sinv.Field}
	case errors.Is(err, kernels.ErrUnknownKernel):
		return http.StatusNotFound, ErrorDetail{Code: CodeUnknownKernel, Message: err.Error()}
	default:
		return http.StatusInternalServerError, ErrorDetail{Code: CodeInternal, Message: err.Error()}
	}
}

// writeError maps err through errorDetail and writes the envelope,
// bumping the canceled or failed counter as appropriate.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, d := errorDetail(err)
	if d.Code == CodeCanceled {
		vars.canceled.Add(1)
	} else {
		vars.failed.Add(1)
	}
	writeJSON(w, status, ErrorBody{Error: d})
}

// ResultMeta is the success-envelope header every sweep response
// embeds: whether the result was recalled from a cache tier, which
// engine executed ("inclusion" or "batched"), the sweep plan that was
// (or would be) run, and — for sampled trace sweeps only — the
// estimation envelope.
type ResultMeta struct {
	Cached bool        `json:"cached"`
	Engine string      `json:"engine"`
	Plan   *PlanInfo   `json:"plan,omitempty"`
	Sample *SampleInfo `json:"sample,omitempty"`
}

// SampleInfo summarizes the estimation envelope of a sampled trace
// sweep (see core.Options.SampleRate). Absent for exact sweeps, so exact
// responses are byte-identical to previous releases.
type SampleInfo struct {
	// Rate and Seed echo the requested spatial sampling parameters.
	Rate float64 `json:"rate,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
	// SampledRecords is how many records were actually simulated.
	SampledRecords int64 `json:"sampled_records"`
	// MissRateCIMax is the largest per-point 95% confidence half-width
	// on MissRate across the sweep — a single worst-case error bound.
	MissRateCIMax float64 `json:"miss_rate_ci_max,omitempty"`
	// Stored marks a sweep over a transcode-sampled artifact: the sample
	// was baked in when the trace was converted, and Rate/Seed echo the
	// parameters recorded in its MXTI01 footer rather than the request.
	Stored bool `json:"stored,omitempty"`
	// ChunksSkipped counts the mxt v2 chunks the reader stepped over via
	// the MXTI01 index instead of decoding — records the sample was
	// going to drop wholesale.
	ChunksSkipped int64 `json:"chunks_skipped,omitempty"`
}

// PlanInfo is the wire form of core.SweepPlan.
type PlanInfo struct {
	Points           int     `json:"points"`
	Workloads        int     `json:"workloads"`
	InclusionGroups  int     `json:"inclusion_groups"`
	InclusionConfigs int     `json:"inclusion_configs"`
	FallbackConfigs  int     `json:"fallback_configs"`
	PassUnits        int     `json:"pass_units"`
	ConfigsPerPass   float64 `json:"configs_per_pass"`
	Shards           []int   `json:"shards,omitempty"`
}

// planInfo converts a sweep plan (scaled by a kernel count for
// aggregate sweeps, which repeat the plan per kernel).
func planInfo(plan core.SweepPlan, kernels int) *PlanInfo {
	return &PlanInfo{
		Points:           plan.Points * kernels,
		Workloads:        plan.Workloads * kernels,
		InclusionGroups:  plan.InclusionGroups * kernels,
		InclusionConfigs: plan.InclusionConfigs * kernels,
		FallbackConfigs:  plan.FallbackConfigs * kernels,
		PassUnits:        plan.PassUnits() * kernels,
		ConfigsPerPass:   plan.ConfigsPerPass(),
		Shards:           plan.Shards,
	}
}

// engineName reports which engine a sweep with this plan executes:
// inclusion when the plan formed at least one stack group, batched
// otherwise.
func engineName(plan core.SweepPlan) string {
	if plan.InclusionGroups > 0 {
		return "inclusion"
	}
	return "batched"
}

// resultMeta assembles the success envelope for one freshly run sweep.
func resultMeta(plan core.SweepPlan, kernels int) ResultMeta {
	return ResultMeta{Engine: engineName(plan), Plan: planInfo(plan, kernels)}
}
