package core

// Per-sweep progress reporting, the engine's only hook. Progress
// callbacks are carried on the context, so concurrent sweeps (the
// service's async jobs) each see only their own events. The engines emit
// deltas at natural completion boundaries: one event per trace chunk
// read by a stream pass, one event per completed workload group (or
// config point) on the kernel engines.

import "context"

// ProgressEvent is one delta report from a running sweep. Every field is
// an increment since the previous event, never a cumulative total.
type ProgressEvent struct {
	// Records is the number of trace references ingested and simulated
	// (external-trace sweeps only).
	Records int64
	// Chunks is the number of trace chunks retired (external-trace
	// sweeps only; a chunk is at most cachesim.CancelCheckInterval refs).
	Chunks int64
	// Points is the number of sweep configuration points completed.
	Points int64
	// PassUnits is the number of simulation pass units completed
	// (inclusion stack groups plus fallback configurations).
	PassUnits int64
}

// ProgressFunc receives progress events. It is called from the sweep's
// own goroutines — potentially several concurrently — and must be cheap
// and safe for concurrent use.
type ProgressFunc func(ProgressEvent)

type progressCtxKey struct{}

// WithProgress returns a context that delivers the sweep's progress
// events to fn. Every *Context exploration entry point honors it.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

// progressFrom extracts the context's progress callback (nil when none).
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressCtxKey{}).(ProgressFunc)
	return fn
}

// ProgressFromContext returns the callback WithProgress installed on the
// context (nil when none). It is exported so sibling subsystems — the
// guided search layer emits one event per generation retirement — can
// report through the same channel the sweep engines use. Installing a
// nil callback with WithProgress silences any engine running under that
// context, which is how search keeps engine pass units out of its own
// generation-level accounting.
func ProgressFromContext(ctx context.Context) ProgressFunc { return progressFrom(ctx) }
