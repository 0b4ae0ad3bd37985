// Package service implements memexplored, the HTTP/JSON daemon that
// serves MemExplore sweeps as an API (stdlib only). Endpoints:
//
//	POST   /v1/explore          run (or recall) a sweep for one kernel
//	POST   /v1/explore-trace    stream an external trace through the sweep
//	POST   /v1/aggregate        §5 trip-count-weighted multi-kernel aggregation
//	POST   /v1/search           budgeted NSGA-II search over the config space
//	POST   /v1/jobs             submit an async sweep job (202 + id)
//	GET    /v1/jobs/{id}        job status, progress and result
//	DELETE /v1/jobs/{id}        cancel a running job
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/kernels          registered kernel names
//	GET    /healthz             liveness (503 while draining)
//	GET    /debug/vars          expvar counters (see metrics.go)
//
// Every sweep, synchronous or async, runs on the one bounded slot pool
// of an internal/jobs Runner with the request context threaded through,
// so client disconnects and deadlines cancel work between config
// points. Completed response bodies land in the runner's result tier
// under a content key — the canonical hash of everything that
// determines the body — so an identical request or job is answered
// from the store: in-memory by default, a shareable filesystem
// directory with Config.JobsDir. Shutdown drains in-flight sweeps and
// accepted jobs through the runner while new work is rejected with 503.
// See docs/SERVICE.md for the wire reference.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/jobs"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

// StatusClientClosedRequest is the non-standard status reported when the
// client abandons a request mid-sweep (nginx's 499 convention). It is
// mostly visible in logs: the client is usually gone before it is sent.
const StatusClientClosedRequest = 499

// Config parameterizes a Server. The zero value is usable: every field
// falls back to its documented default.
type Config struct {
	// MaxConcurrentSweeps bounds the slot pool: at most this many sweeps
	// — synchronous requests and async jobs alike — execute at once, the
	// rest queue until a slot frees or their context is canceled.
	// Default 4.
	MaxConcurrentSweeps int
	// SweepWorkers is the per-sweep goroutine count handed to
	// core.ExploreParallelContext. Default 0 = GOMAXPROCS.
	SweepWorkers int
	// CacheEntries is the capacity of the in-memory store, which holds
	// job records and content-keyed result bodies. Default 256; negative
	// turns result recall off (the store then keeps the default 256 job
	// records). Ignored with JobsDir, except that negative still turns
	// recall off.
	CacheEntries int
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// JobTTL is how long terminal job records and results stay readable
	// in the in-memory store. Default 15 minutes. Ignored with JobsDir.
	JobTTL time.Duration
	// JobsDir, when set, stores terminal job records and content-keyed
	// results as files under this directory instead of in memory — a
	// directory shared by several replicas becomes a shared result tier.
	// JobTTL applies here too: a background janitor removes terminal
	// records (cascading through child shard jobs and content keys) and
	// trace blobs older than the TTL, so a shared directory never leaks.
	JobsDir string
	// Peers lists the base URLs of sibling replicas (e.g.
	// "http://10.0.0.2:8080") this server may dispatch distributed sweep
	// shards to. The list must not include the server itself. Empty means
	// distributed requests run every shard locally.
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentSweeps <= 0 {
		c.MaxConcurrentSweeps = 4
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	return c
}

// Server is the memexplored HTTP handler plus the runner that owns its
// slot pool, result tier and drain path. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	runner *jobs.Runner
	// fsStore is non-nil when JobsDir is configured: the shared tier
	// distributed sweeps publish trace blobs to, and the store the
	// cleanup janitor sweeps.
	fsStore     *jobs.FSStore
	peerClient  *http.Client
	janitorStop chan struct{}
	janitorOnce sync.Once
}

// New builds a Server with the given configuration. It fails only when
// Config.JobsDir is set but unusable.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var store jobs.Store
	var fsStore *jobs.FSStore
	if cfg.JobsDir != "" {
		fs, err := jobs.NewFSStore(cfg.JobsDir)
		if err != nil {
			return nil, fmt.Errorf("service: opening job store: %w", err)
		}
		store, fsStore = fs, fs
	} else {
		store = jobs.NewMemStore(cfg.CacheEntries, cfg.JobTTL)
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		fsStore:    fsStore,
		peerClient: &http.Client{}, // per-request deadlines come from contexts
	}
	if fsStore != nil {
		s.janitorStop = make(chan struct{})
		go s.janitor(fsStore, cfg.JobTTL)
	}
	s.runner = jobs.NewRunner(store, cfg.MaxConcurrentSweeps, mapJobError, runnerHooks())
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/explore-trace", s.handleExploreTrace)
	s.mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s, nil
}

// MustNew is New for callers with a statically valid configuration
// (tests, the bench harness); it panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown starts draining: new sweep requests and job submissions are
// rejected with 503 while in-flight sweeps and accepted jobs (queued or
// running) run to completion — one drain path, the runner's. It returns
// when everything has finished or ctx expires (then ctx.Err()). Callers
// cancel still-running sync sweeps by canceling the base context of
// their http.Server or closing client connections; running jobs finish
// on their own (cancel them individually via DELETE /v1/jobs/{id} for a
// hard stop).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.janitorStop != nil {
		s.janitorOnce.Do(func() { close(s.janitorStop) })
	}
	return s.runner.Drain(ctx)
}

// Draining reports whether Shutdown has been called.
func (s *Server) Draining() bool { return s.runner.Draining() }

// janitor periodically sweeps expired terminal records (and their child
// shard jobs, content keys and blobs) out of the filesystem job store.
// It runs until Shutdown; several replicas sweeping the same directory
// are harmless — removal is idempotent.
func (s *Server) janitor(fs *jobs.FSStore, ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_, _ = fs.Cleanup(ttl)
		case <-s.janitorStop:
			return
		}
	}
}

// --- wire types -------------------------------------------------------

// Job and request kinds — the "kind" discriminator of the shared wire
// forms. A synchronous endpoint accepts its own kind (or none); the
// jobs endpoint dispatches on it.
const (
	KindExplore      = "explore"
	KindExploreTrace = "explore-trace"
	KindSearch       = "search"
)

// ExploreRequest is the POST /v1/explore body and (as the "explore"
// kind) the POST /v1/jobs body. Exactly one of Kernel (a registered
// name) or Source (inline loop-nest text, the Nest.String grammar)
// selects the workload.
type ExploreRequest struct {
	// Kind optionally names the request shape; "explore" here. The jobs
	// endpoint dispatches on it, the sync endpoint merely checks it.
	Kind   string `json:"kind,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	Source string `json:"source,omitempty"`
	// Options overrides DefaultOptions field-by-field: absent fields keep
	// their defaults, candidate lists are normalized (sorted, deduped).
	Options json.RawMessage `json:"options,omitempty"`
	// CycleBound/EnergyBoundNJ, when positive, add the paper's bounded
	// selections to the response.
	CycleBound    float64 `json:"cycle_bound,omitempty"`
	EnergyBoundNJ float64 `json:"energy_bound_nj,omitempty"`
}

// Best collects the selection optima over a sweep. Bounded entries are
// present only when the request set the bound; absent also when no
// configuration meets it.
type Best struct {
	MinEnergy                 *core.Metrics `json:"min_energy,omitempty"`
	MinCycles                 *core.Metrics `json:"min_cycles,omitempty"`
	MinEDP                    *core.Metrics `json:"min_edp,omitempty"`
	MinEnergyUnderCycleBound  *core.Metrics `json:"min_energy_under_cycle_bound,omitempty"`
	MinCyclesUnderEnergyBound *core.Metrics `json:"min_cycles_under_energy_bound,omitempty"`
}

// ExploreResponse is the POST /v1/explore reply (and, marshaled, the
// result body of an "explore" job).
type ExploreResponse struct {
	ResultMeta
	Kernel  string         `json:"kernel"`
	Points  int            `json:"points"`
	Metrics []core.Metrics `json:"metrics"`
	Best    Best           `json:"best"`
}

// AggregateKernel names one weighted kernel of an aggregate request.
type AggregateKernel struct {
	Kernel string `json:"kernel,omitempty"`
	Source string `json:"source,omitempty"`
	Trip   int64  `json:"trip"`
}

// AggregateRequest is the POST /v1/aggregate body.
type AggregateRequest struct {
	Kernels       []AggregateKernel `json:"kernels"`
	Options       json.RawMessage   `json:"options,omitempty"`
	CycleBound    float64           `json:"cycle_bound,omitempty"`
	EnergyBoundNJ float64           `json:"energy_bound_nj,omitempty"`
}

// AggregateResponse is the POST /v1/aggregate reply. PerKernelBest maps
// each kernel to its individual minimum-energy configuration (Figure 10's
// per-kernel optima); Program carries the trip-weighted whole-program
// sweep.
type AggregateResponse struct {
	ResultMeta
	Points        int                     `json:"points"`
	Program       []core.Metrics          `json:"program"`
	Best          Best                    `json:"best"`
	PerKernelBest map[string]core.Metrics `json:"per_kernel_best"`
}

// KernelsResponse is the GET /v1/kernels reply.
type KernelsResponse struct {
	Kernels []string `json:"kernels"`
}

// ErrorBody is the JSON error envelope: {"error": {...}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail describes a failed request. Code is a stable machine-
// readable slug; Field is set for invalid_options errors.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, KernelsResponse{Kernels: kernels.Names()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vars.requests.Add(1)
	defer func() { vars.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	if s.rejectDraining(w) {
		return
	}
	var req ExploreRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, invalidRequest(err))
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
	s.writeDo(r.Context(), w, p.key, func(ctx context.Context) ([]byte, error) {
		return s.exploreBody(ctx, p)
	})
}

// exploreParams is a resolved explore request: the validated nest and
// normalized options plus the content key they hash to — everything a
// sweep needs, computed up front so async submissions can reject bad
// requests synchronously.
type exploreParams struct {
	req  ExploreRequest
	nest *loopir.Nest
	opts core.Options
	key  string
}

// resolveExplore validates an explore request into its parameters.
func resolveExplore(req ExploreRequest) (exploreParams, error) {
	nest, err := resolveNest(req.Kernel, req.Source)
	if err != nil {
		return exploreParams{}, err
	}
	opts, err := resolveOptions(req.Options)
	if err != nil {
		return exploreParams{}, err
	}
	return exploreParams{
		req:  req,
		nest: nest,
		opts: opts,
		// The key hashes everything that determines the body: the sweep
		// inputs plus the bounds that shape Best.
		key: cacheKey("explore", nest.String(), mustJSON(opts),
			fmt.Sprint(req.CycleBound), fmt.Sprint(req.EnergyBoundNJ)),
	}, nil
}

// exploreBody runs one explore sweep and encodes its response body —
// the bytes the sync endpoint writes and an explore job stores, which
// is what keeps the two identical.
func (s *Server) exploreBody(ctx context.Context, p exploreParams) ([]byte, error) {
	begin := time.Now()
	ms, err := core.ExploreParallelContext(ctx, p.nest, p.opts, s.cfg.SweepWorkers)
	if err != nil {
		return nil, err
	}
	plan := p.opts.Plan()
	recordSweep(planStats(plan, 1), begin)
	return marshalResult(&ExploreResponse{
		ResultMeta: resultMeta(false, p.opts, plan, 1),
		Kernel:     p.nest.Name,
		Points:     len(ms),
		Metrics:    ms,
		Best:       bestOf(ms, p.req.CycleBound, p.req.EnergyBoundNJ),
	})
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vars.requests.Add(1)
	defer func() { vars.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	if s.rejectDraining(w) {
		return
	}
	var req AggregateRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, invalidRequest(err))
		return
	}
	if len(req.Kernels) == 0 {
		s.writeError(w, httpError(http.StatusBadRequest, CodeInvalidRequest,
			"kernels must list at least one weighted kernel", ""))
		return
	}
	ws := make([]core.WeightedKernel, 0, len(req.Kernels))
	keyParts := []string{"aggregate"}
	for i, k := range req.Kernels {
		nest, err := resolveNest(k.Kernel, k.Source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if k.Trip <= 0 {
			s.writeError(w, httpError(http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("kernels[%d]: trip must be positive, got %d", i, k.Trip), ""))
			return
		}
		ws = append(ws, core.WeightedKernel{Nest: nest, Trip: k.Trip})
		keyParts = append(keyParts, nest.String(), fmt.Sprint(k.Trip))
	}
	opts, err := resolveOptions(req.Options)
	if err != nil {
		s.writeError(w, err)
		return
	}
	keyParts = append(keyParts, mustJSON(opts), fmt.Sprint(req.CycleBound), fmt.Sprint(req.EnergyBoundNJ))

	s.writeDo(r.Context(), w, cacheKey(keyParts...), func(ctx context.Context) ([]byte, error) {
		begin := time.Now()
		program, perKernel, err := core.AggregateContext(ctx, ws, opts)
		if err != nil {
			return nil, err
		}
		perKernelBest := make(map[string]core.Metrics, len(perKernel))
		for name, ms := range perKernel {
			if best, ok := core.MinEnergy(ms); ok {
				perKernelBest[name] = best
			}
		}
		// One explore sweep per kernel, each with the same pass plan.
		plan := opts.Plan()
		recordSweep(planStats(plan, len(ws)), begin)
		return marshalResult(AggregateResponse{
			ResultMeta:    resultMeta(false, opts, plan, len(ws)),
			Points:        len(program),
			Program:       program,
			Best:          bestOf(program, req.CycleBound, req.EnergyBoundNJ),
			PerKernelBest: perKernelBest,
		})
	})
}

// --- request plumbing -------------------------------------------------

// decodeBody strictly decodes a JSON body into dst: unknown fields and
// trailing garbage are errors, so typos fail loudly instead of silently
// running a default sweep.
func decodeBody(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data after the JSON object")
	}
	return nil
}

// invalidRequest wraps a body-decode failure in its envelope.
func invalidRequest(err error) *requestError {
	return httpError(http.StatusBadRequest, CodeInvalidRequest, err.Error(), "")
}

// checkKind validates the "kind" discriminator of a request against the
// endpoint's expected kind; absent is accepted.
func checkKind(got, want string) error {
	if got != "" && got != want {
		return httpError(http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("kind %q does not match this endpoint (want %q)", got, want), "kind")
	}
	return nil
}

// resolveNest turns a (kernel, source) pair into a validated nest.
func resolveNest(kernel, source string) (*loopir.Nest, error) {
	switch {
	case kernel != "" && source != "":
		return nil, httpError(http.StatusBadRequest, CodeInvalidRequest, "set exactly one of kernel and source, not both", "")
	case kernel != "":
		nest, err := kernels.ByName(kernel)
		if err != nil {
			if errors.Is(err, kernels.ErrUnknownKernel) {
				return nil, err // errorDetail maps this to 404 unknown_kernel
			}
			return nil, httpError(http.StatusBadRequest, CodeInvalidRequest, err.Error(), "")
		}
		return nest, nil
	case source != "":
		nest, err := loopir.Parse(source)
		if err != nil {
			return nil, httpError(http.StatusBadRequest, CodeInvalidKernel, err.Error(), "")
		}
		if err := nest.Validate(); err != nil {
			return nil, httpError(http.StatusBadRequest, CodeInvalidKernel, err.Error(), "")
		}
		return nest, nil
	default:
		return nil, httpError(http.StatusBadRequest, CodeInvalidRequest, "set one of kernel (registered name) or source (inline loop nest)", "")
	}
}

// resolveOptions overlays the raw options onto DefaultOptions, then
// normalizes and validates. The normalized form is what the sweep runs
// with AND what the content key hashes, so wire-equivalent requests
// share results. Validation failures surface as *core.ErrInvalidOptions
// for errorDetail to map.
func resolveOptions(raw json.RawMessage) (core.Options, error) {
	opts := core.DefaultOptions()
	if len(raw) > 0 {
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&opts); err != nil {
			return core.Options{}, httpError(http.StatusBadRequest, CodeInvalidOptions,
				fmt.Sprintf("decoding options: %v", err), "")
		}
	}
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return core.Options{}, err
	}
	return opts, nil
}

// sweepStats is what a completed sweep reports for the expvar counters:
// how many config points it scored, how many distinct workload traces it
// generated and traversed to do so (equal to points for per-point
// sweeps; far fewer on the batched engine), and how those points
// partitioned into inclusion stack groups versus per-configuration pass
// units.
type sweepStats struct {
	points          int
	workloads       int
	inclusionGroups int
	passUnits       int
}

// planStats converts a sweep plan (core.Options.Plan) into the expvar
// report, optionally scaled by a kernel count for aggregate sweeps that
// repeat the same plan per kernel.
func planStats(plan core.SweepPlan, kernels int) sweepStats {
	return sweepStats{
		points:          plan.Points * kernels,
		workloads:       plan.Workloads * kernels,
		inclusionGroups: plan.InclusionGroups * kernels,
		passUnits:       plan.PassUnits() * kernels,
	}
}

// recordSweep adds one completed sweep to the expvar counters: the
// points it scored and how its plan batched them, plus its throughput.
func recordSweep(st sweepStats, begin time.Time) {
	vars.points.Add(int64(st.points))
	vars.workloads.Add(int64(st.workloads))
	if saved := st.points - st.workloads; saved > 0 {
		vars.passesSaved.Add(int64(saved))
	}
	vars.inclusionGroups.Add(int64(st.inclusionGroups))
	if st.passUnits > 0 {
		vars.configsPerPass.Set(float64(st.points) / float64(st.passUnits))
	}
	if secs := time.Since(begin).Seconds(); secs > 0 {
		vars.lastPointsPerSec.Set(float64(st.points) / secs)
	}
}

// recallKey is the content key a sweep is recalled and published
// under: key itself, or none when Config.CacheEntries turns recall off.
func (s *Server) recallKey(key string) string {
	if s.cfg.CacheEntries < 0 {
		return ""
	}
	return key
}

// writeDo answers a synchronous sweep request: the runner recalls the
// body under key or runs body on a slot, and the handler writes it.
func (s *Server) writeDo(ctx context.Context, w http.ResponseWriter, key string, body func(context.Context) ([]byte, error)) {
	b, cached, err := s.runner.Do(ctx, s.recallKey(key), body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if cached {
		// A stored body always starts with the ResultMeta envelope as the
		// fresh run encoded it.
		if rest, ok := bytes.CutPrefix(b, []byte(`{"cached":false`)); ok {
			b = append([]byte(`{"cached":true`), rest...)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, '\n')) // the client may be gone; nothing useful to do
}

// errDraining is the 503 rejection Shutdown puts in front of new work.
func errDraining() *requestError {
	return httpError(http.StatusServiceUnavailable, CodeDraining, "server is shutting down, not accepting new work", "")
}

// rejectDraining writes the 503 drain response and reports whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.Draining() {
		return false
	}
	s.writeError(w, errDraining())
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client may be gone; nothing useful to do
}

// marshalResult encodes a response body exactly as writeJSON writes it
// (same encoder settings, HTML escaping off), minus the trailing newline
// — embedding as json.RawMessage would strip it anyway. This is what
// makes a stored or async result byte-comparable to its synchronous
// twin.
func marshalResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// cacheKey hashes the canonical parts of a request into a content
// address. Parts are joined with a NUL separator so concatenation is
// unambiguous.
func cacheKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mustJSON marshals a value that cannot fail (plain structs, no cycles).
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: marshaling %T: %v", v, err))
	}
	return string(b)
}

// bestOf computes the selection optima for a sweep.
func bestOf(ms []core.Metrics, cycleBound, energyBoundNJ float64) Best {
	var b Best
	set := func(dst **core.Metrics, m core.Metrics, ok bool) {
		if ok {
			cp := m
			*dst = &cp
		}
	}
	m, ok := core.MinEnergy(ms)
	set(&b.MinEnergy, m, ok)
	m, ok = core.MinCycles(ms)
	set(&b.MinCycles, m, ok)
	m, ok = core.MinEDP(ms)
	set(&b.MinEDP, m, ok)
	if cycleBound > 0 {
		m, ok = core.MinEnergyUnderCycleBound(ms, cycleBound)
		set(&b.MinEnergyUnderCycleBound, m, ok)
	}
	if energyBoundNJ > 0 {
		m, ok = core.MinCyclesUnderEnergyBound(ms, energyBoundNJ)
		set(&b.MinCyclesUnderEnergyBound, m, ok)
	}
	return b
}
