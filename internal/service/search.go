package service

// The guided-search surface. POST /v1/search runs a budgeted NSGA-II
// search (internal/search) over a kernel workload's configuration space
// instead of sweeping it exhaustively — the endpoint for spaces too
// large to enumerate. The same SearchRequest shape, with "kind":
// "search", submits asynchronously through POST /v1/jobs; progress
// events then count evaluated points against the evaluation budget and
// generation retirements against the generation budget. Results flow
// through the same content-keyed result tier as sweeps, keyed by
// everything that determines the body — kernel, normalized sweep
// options, normalized search options, budget and bounds — so identical
// searches (same seed included) are answered from the store.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/jobs"
	"memexplore/internal/loopir"
	"memexplore/internal/search"
)

// SearchRequest is the POST /v1/search body and (as the "search" kind)
// a POST /v1/jobs body. Workload and options resolve exactly as in
// ExploreRequest; Search and Budget parameterize the evolution.
type SearchRequest struct {
	Kind   string `json:"kind,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	Source string `json:"source,omitempty"`
	// Options overrides DefaultOptions field-by-field, as in explore.
	Options json.RawMessage `json:"options,omitempty"`
	// Search overrides search.DefaultOptions field-by-field (seed,
	// pop_size, crossover_rate, mutation_rate).
	Search json.RawMessage `json:"search,omitempty"`
	// Budget bounds the run; at least one bound is required.
	Budget BudgetParams `json:"budget"`
	// CycleBound/EnergyBoundNJ, when positive, add the paper's bounded
	// selections (computed over the archive) to the response.
	CycleBound    float64 `json:"cycle_bound,omitempty"`
	EnergyBoundNJ float64 `json:"energy_bound_nj,omitempty"`
}

// BudgetParams is the wire form of search.Budget. WallClockMS trades
// reproducibility for a hard latency cap: where the run stops depends on
// machine speed, so only evaluation/generation-bounded searches are
// bit-reproducible.
type BudgetParams struct {
	MaxEvaluations int   `json:"max_evaluations,omitempty"`
	MaxGenerations int   `json:"max_generations,omitempty"`
	WallClockMS    int64 `json:"wall_clock_ms,omitempty"`
}

// SearchResponse is the POST /v1/search reply (and, marshaled, the
// result body of a "search" job). It embeds the search result — archive,
// evaluation counts, stop reason — plus the selection optima over the
// archive.
type SearchResponse struct {
	ResultMeta
	Kernel string `json:"kernel"`
	search.Result
	Best Best `json:"best"`
}

// searchParams is a resolved search request: validated workload,
// normalized sweep and search options, the budget, and the content key
// they hash to.
type searchParams struct {
	req    SearchRequest
	nest   *loopir.Nest
	opts   core.Options
	sopts  search.Options
	budget search.Budget
	key    string
}

// resolveSearch validates a search request into its parameters. Budget
// and search-option failures surface as *search.InvalidError for
// errorDetail to map onto invalid_search.
func resolveSearch(req SearchRequest) (searchParams, error) {
	nest, err := resolveNest(req.Kernel, req.Source)
	if err != nil {
		return searchParams{}, err
	}
	opts, err := resolveOptions(req.Options)
	if err != nil {
		return searchParams{}, err
	}
	var sopts search.Options
	if len(req.Search) > 0 {
		dec := json.NewDecoder(strings.NewReader(string(req.Search)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sopts); err != nil {
			return searchParams{}, httpError(http.StatusBadRequest, CodeInvalidSearch,
				fmt.Sprintf("decoding search options: %v", err), "search")
		}
	}
	sopts = sopts.Normalize()
	if err := sopts.Validate(); err != nil {
		return searchParams{}, err
	}
	budget := search.Budget{
		MaxEvaluations: req.Budget.MaxEvaluations,
		MaxGenerations: req.Budget.MaxGenerations,
		WallClock:      time.Duration(req.Budget.WallClockMS) * time.Millisecond,
	}
	if err := budget.Validate(); err != nil {
		return searchParams{}, err
	}
	return searchParams{
		req:    req,
		nest:   nest,
		opts:   opts,
		sopts:  sopts,
		budget: budget,
		// The key hashes everything that determines the body: the search
		// inputs plus the bounds that shape Best.
		key: cacheKey("search", nest.String(), mustJSON(opts), mustJSON(sopts),
			fmt.Sprint(budget.MaxEvaluations), fmt.Sprint(budget.MaxGenerations),
			fmt.Sprint(int64(budget.WallClock)),
			fmt.Sprint(req.CycleBound), fmt.Sprint(req.EnergyBoundNJ)),
	}, nil
}

// searchBody runs one guided search and encodes its response body; the
// sync handler and the async job body both call it, keeping their
// results identical. The sweep plan is omitted from the envelope: a
// search deliberately does NOT run the full plan, and
// Result.SpacePoints/Evaluations report what it covered instead.
func (s *Server) searchBody(ctx context.Context, p searchParams) ([]byte, error) {
	begin := time.Now()
	p.opts.Workers = s.sweepWorkers(0)
	r, err := search.Kernel(ctx, p.nest, p.opts, p.sopts, p.budget)
	if err != nil {
		return nil, err
	}
	vars.searchRuns.Add(1)
	vars.searchEvaluations.Add(int64(r.Evaluations))
	vars.searchGenerations.Add(int64(r.Generations))
	vars.searchMemoHits.Add(int64(r.MemoHits))
	// Every evaluated point came from its own inner engine pass group;
	// points == workloads keeps the passes-saved counter honest.
	recordSweep(sweepStats{points: r.Evaluations, workloads: r.Evaluations}, begin)
	return marshalResult(&SearchResponse{
		ResultMeta: ResultMeta{Engine: engineName(p.opts.Plan())},
		Kernel:     p.nest.Name,
		Result:     r,
		Best:       bestOf(r.Archive, p.req.CycleBound, p.req.EnergyBoundNJ),
	})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	vars.requests.Add(1)
	defer func() { vars.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }()

	if s.rejectDraining(w) {
		return
	}
	var req SearchRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, invalidRequest(err))
		return
	}
	if err := checkKind(req.Kind, KindSearch); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := resolveSearch(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeDo(r.Context(), w, p.key, func(ctx context.Context) ([]byte, error) {
		return s.searchBody(ctx, p)
	})
}

// submitSearchJob validates a search submission and queues it. Progress
// totals are the budget's bounds (0 = unbounded): Points counts
// evaluated configurations, PassUnits counts generation retirements.
func (s *Server) submitSearchJob(w http.ResponseWriter, body []byte) {
	var req SearchRequest
	if err := decodeBody(bytes.NewReader(body), &req); err != nil {
		s.writeError(w, invalidRequest(err))
		return
	}
	p, err := resolveSearch(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rec, err := s.runner.Submit(KindSearch, s.recallKey(p.key), func(ctx context.Context, rep *jobs.Reporter) ([]byte, error) {
		rep.SetTotals(int64(p.budget.MaxEvaluations), int64(p.budget.MaxGenerations))
		return s.searchBody(reportProgress(ctx, rep), p)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}
