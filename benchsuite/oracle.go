package main

// The correctness oracle. Every operation gets a structural check (a
// 2xx answer that parses, with the expected point count); a seeded
// sample — and every job — is checked against an in-process reference
// computed by the core library; every repeat must carry its first
// answer's metrics. Any disagreement fails the operation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
)

// overlayOptions decodes a request's options onto DefaultOptions the way
// the service does: unknown fields rejected, the result normalized.
func overlayOptions(raw json.RawMessage) (core.Options, error) {
	opts := core.DefaultOptions()
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&opts); err != nil {
			return core.Options{}, fmt.Errorf("decoding options: %w", err)
		}
	}
	opts = opts.Normalize()
	return opts, opts.Validate()
}

// sweepReply is the part of a sweep response the oracle reads: explore,
// aggregate and trace replies, and a job record's embedded result.
type sweepReply struct {
	Points        int             `json:"points"`
	Metrics       json.RawMessage `json:"metrics"`
	Program       json.RawMessage `json:"program"`
	PerKernelBest json.RawMessage `json:"per_kernel_best"`
	Ingest        struct {
		Records int64 `json:"records"`
	} `json:"ingest"`
}

// jobRecord is the part of a terminal job record the oracle and the
// queue-wait counters read.
type jobRecord struct {
	State      string          `json:"state"`
	Result     json.RawMessage `json:"result"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
}

// reply extracts the sweep reply of an outcome (a job's from its record).
func reply(o outcome) (sweepReply, error) {
	body := o.resp
	if o.op.kind == kindJob {
		var rec jobRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return sweepReply{}, fmt.Errorf("job record: %w", err)
		}
		if rec.State != "done" {
			return sweepReply{}, fmt.Errorf("job ended %s", rec.State)
		}
		body = rec.Result
	}
	var r sweepReply
	if err := json.Unmarshal(body, &r); err != nil {
		return sweepReply{}, fmt.Errorf("decoding reply: %w", err)
	}
	return r, nil
}

// oracle holds what the checks of one workload need.
type oracle struct {
	seed        int64
	stream      string // trace body stream
	records     int    // trace body records
	artifacts   [2]string
	tracePoints int // points of a default trace sweep
}

// verify checks every outcome and returns one message per failed
// operation. Reference computations run on up to nproc goroutines, after
// the timed window.
func (or *oracle) verify(ctx context.Context, outcomes []outcome) []string {
	first := make(map[*op][]byte) // retained ops' metrics, for their repeats
	for _, o := range outcomes {
		if o.op.retain && o.err == nil {
			if r, err := reply(o); err == nil {
				first[o.op] = r.Metrics
			}
		}
	}
	var (
		mu       sync.Mutex
		failures []string
		wg       sync.WaitGroup
		sem      = make(chan struct{}, runtime.NumCPU())
	)
	for i := range outcomes {
		o := outcomes[i]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			err := o.err
			if err == nil {
				err = or.check(ctx, o, first)
			}
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("op %d (%s): %v", o.op.id, o.op.kind, err))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failures
}

// check verifies one successful outcome.
func (or *oracle) check(ctx context.Context, o outcome, first map[*op][]byte) error {
	if o.op.kind == kindCLI {
		return or.checkCLI(o)
	}
	r, err := reply(o)
	if err != nil {
		return err
	}
	switch o.op.kind {
	case kindRepeat:
		want, ok := first[o.op.target]
		if !ok {
			return fmt.Errorf("the repeated op %d has no answer to compare with", o.op.target.id)
		}
		if !bytes.Equal(r.Metrics, want) {
			return fmt.Errorf("repeat of op %d answered different metrics", o.op.target.id)
		}
		return nil
	case kindAggregate:
		if r.Points == 0 || !o.op.check {
			return nonEmpty(r.Points, r.Program)
		}
		return or.checkAggregate(ctx, o.op, r)
	case kindTrace:
		if r.Points != or.tracePoints || r.Ingest.Records != o.op.records {
			return fmt.Errorf("trace reply has %d points over %d records, want %d over %d",
				r.Points, r.Ingest.Records, or.tracePoints, o.op.records)
		}
		if !o.op.check {
			return nonEmpty(r.Points, r.Metrics)
		}
		body := traceBody(or.seed, or.stream, o.op, or.records)
		opts := core.DefaultOptions().Normalize()
		opts.Workers = 1 // the sequential engine: an independent path from the server's pipeline
		want, _, err := core.ExploreTraceReader(ctx, bytes.NewReader(body), opts, extrace.Options{})
		if err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		return sameMetrics(r.Metrics, want)
	default: // kindExplore, kindJob
		if err := nonEmpty(r.Points, r.Metrics); err != nil {
			return err
		}
		if !o.op.check {
			return nil
		}
		var req exploreRequest
		if err := json.Unmarshal(o.op.body, &req); err != nil {
			return err
		}
		nest, err := kernels.ByName(req.Kernel)
		if err != nil {
			return err
		}
		opts, err := overlayOptions(req.Options)
		if err != nil {
			return err
		}
		want, err := core.ExploreContext(ctx, nest, opts)
		if err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		return sameMetrics(r.Metrics, want)
	}
}

// checkAggregate recomputes an aggregate in process.
func (or *oracle) checkAggregate(ctx context.Context, o *op, r sweepReply) error {
	var req aggregateRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return err
	}
	opts, err := overlayOptions(req.Options)
	if err != nil {
		return err
	}
	ws := make([]core.WeightedKernel, len(req.Kernels))
	for i, k := range req.Kernels {
		nest, err := kernels.ByName(k.Kernel)
		if err != nil {
			return err
		}
		ws[i] = core.WeightedKernel{Nest: nest, Trip: k.Trip}
	}
	program, perKernel, err := core.AggregateContext(ctx, ws, opts)
	if err != nil {
		return fmt.Errorf("reference aggregate: %w", err)
	}
	if err := sameMetrics(r.Program, program); err != nil {
		return err
	}
	best := make(map[string]core.Metrics, len(perKernel))
	for name, ms := range perKernel {
		if m, ok := core.MinEnergy(ms); ok {
			best[name] = m
		}
	}
	if !bytes.Equal(r.PerKernelBest, mustJSON(best)) {
		return fmt.Errorf("per-kernel optima differ from the in-process aggregate")
	}
	return nil
}

// checkCLI parses a CLI sweep's JSON output and, for sampled ops,
// compares it with the same sampled sweep run in process.
func (or *oracle) checkCLI(o outcome) error {
	var got []core.Metrics
	if err := json.Unmarshal(o.resp, &got); err != nil {
		return fmt.Errorf("CLI output does not parse: %w", err)
	}
	if len(got) != or.tracePoints {
		return fmt.Errorf("CLI output has %d points, want %d", len(got), or.tracePoints)
	}
	if !o.op.check {
		return nil
	}
	want, err := or.sampledSweep(or.artifacts[o.op.artifact], o.op.sampleSeed)
	if err != nil {
		return err
	}
	return sameMetrics(mustJSON(got), want)
}

// sampledSweep runs an artifact's sampled sweep in process with the
// options the CLI builds (DefaultOptions at its default Em of 4.95 nJ).
func (or *oracle) sampledSweep(path string, seed uint64) ([]core.Metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	opts := core.DefaultOptions()
	opts.SampleRate, opts.SampleSeed = sampleRate, seed
	ms, _, err := core.ExploreTrace(f, opts, extrace.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference sweep of %s: %w", path, err)
	}
	return ms, nil
}

func nonEmpty(points int, metrics json.RawMessage) error {
	if points == 0 || len(metrics) < 3 {
		return fmt.Errorf("empty sweep reply")
	}
	return nil
}

// sameMetrics compares a reply's metrics with a reference, byte for
// byte in their JSON wire form.
func sameMetrics(got json.RawMessage, want []core.Metrics) error {
	if !bytes.Equal(got, mustJSON(want)) {
		return fmt.Errorf("metrics differ from the in-process reference (%d points)", len(want))
	}
	return nil
}

// accuracy compares every CLI op's sampled sweep with the exact sweep of
// its artifact: the p90 over (op, point) of the absolute miss-rate
// error, and the share of ops whose minimum-energy configuration is the
// exact one. Both are deterministic for a seed.
func (or *oracle) accuracy(outcomes []outcome) (errP90, argminMatch float64, err error) {
	var exact [2][]core.Metrics
	var wg sync.WaitGroup
	var errs [2]error
	for a := range exact {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := os.Open(or.artifacts[a])
			if err != nil {
				errs[a] = err
				return
			}
			defer f.Close()
			exact[a], _, errs[a] = core.ExploreTrace(f, core.DefaultOptions(), extrace.Options{})
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, fmt.Errorf("exact sweep of an artifact: %w", e)
		}
	}
	var diffs []float64
	matches, ops := 0, 0
	for _, o := range outcomes {
		var got []core.Metrics
		if o.err != nil || json.Unmarshal(o.resp, &got) != nil || len(got) != len(exact[o.op.artifact]) {
			continue
		}
		ref := exact[o.op.artifact]
		for i := range got {
			d := got[i].MissRate - ref[i].MissRate
			diffs = append(diffs, max(d, -d))
		}
		gm, _ := core.MinEnergy(got)
		rm, _ := core.MinEnergy(ref)
		if gm.Label() == rm.Label() {
			matches++
		}
		ops++
	}
	if ops == 0 {
		return 0, 0, fmt.Errorf("no CLI output to compare")
	}
	p90, _ := percentile(diffs, 0.9)
	return p90, float64(matches) / float64(ops), nil
}

// firstLines keeps the first n failure messages for printing.
func firstLines(msgs []string, n int) string {
	if len(msgs) > n {
		msgs = append(msgs[:n:n], fmt.Sprintf("... and %d more", len(msgs)-n))
	}
	return strings.Join(msgs, "\n")
}
