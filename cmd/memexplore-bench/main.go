// Command memexplore-bench load-tests the memexplored v1 API surface:
// a pool of concurrent clients drives the synchronous /v1/explore
// endpoint and the async /v1/jobs pipeline (submit, poll to
// completion), and the harness reports p50/p99 latencies for each as
// JSON — written to -out (BENCH_service.json by convention) and echoed
// to stdout.
//
// Usage:
//
//	memexplore-bench                 # in-process server, full load
//	memexplore-bench -smoke          # seconds-long CI smoke run
//	memexplore-bench -addr http://localhost:8080   # against a live daemon
//
// Without -addr the harness starts an in-process memexplored (an
// httptest server around service.New), so results measure the service
// stack without kernel-network noise.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"memexplore/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "", "benchmark a running daemon at this base URL instead of an in-process server")
		conc     = flag.Int("concurrency", 4, "concurrent client workers per phase")
		requests = flag.Int("requests", 64, "synchronous requests to issue")
		jobCount = flag.Int("job-count", 16, "async jobs to submit and await")
		sweeps   = flag.Int("sweeps", 4, "in-process server: max concurrent sweeps")
		out      = flag.String("out", "BENCH_service.json", "write the JSON report here ('-' for stdout only)")
		smoke    = flag.Bool("smoke", false, "tiny CI run: few requests, small sweep space")

		dist        = flag.Bool("dist", false, "benchmark distributed trace sweeps across replica subprocesses instead (writes BENCH_dist.json)")
		distRecords = flag.Int("dist-records", 4_000_000, "-dist: synthetic trace records per sweep")
		distIters   = flag.Int("dist-iters", 3, "-dist: iterations per leg (best time wins)")

		// Internal flags of the replica subprocess mode; see dist.go.
		replicaJobsDir = flag.String("replica-jobs-dir", "", "internal: serve as a replica over this shared jobs directory")
		replicaPeers   = flag.String("replica-peers", "", "internal: comma-separated peer base URLs for the replica")
	)
	flag.Parse()
	if *replicaJobsDir != "" {
		runReplica(*replicaJobsDir, *replicaPeers)
		return
	}
	if *smoke {
		*conc, *requests, *jobCount = 2, 8, 4
	}
	if *dist {
		if *smoke {
			*distRecords, *distIters = 200_000, 1
		}
		if *out == "BENCH_service.json" { // the -out default belongs to the service phase
			*out = "BENCH_dist.json"
		}
		report, err := runDistPhase(*distRecords, *distIters, *smoke)
		if err != nil {
			fatal(err)
		}
		writeReport(report, *out)
		return
	}

	base := *addr
	if base == "" {
		svc := service.MustNew(service.Config{MaxConcurrentSweeps: *sweeps})
		ts := httptest.NewServer(svc)
		defer ts.Close()
		base = ts.URL
	}
	base = strings.TrimRight(base, "/")

	report := Report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Config: RunConfig{
			Addr: *addr, Concurrency: *conc, Requests: *requests,
			Jobs: *jobCount, Smoke: *smoke, InProcess: *addr == "",
		},
	}

	syncStats, err := runSyncPhase(base, *conc, *requests, *smoke)
	if err != nil {
		fatal(err)
	}
	report.Sync = syncStats

	jobStats, err := runJobPhase(base, *conc, *jobCount, *smoke)
	if err != nil {
		fatal(err)
	}
	report.Jobs = jobStats

	writeReport(report, *out)
}

// writeReport echoes a report to stdout and, unless out is "-", writes
// it to the named file.
func writeReport(report any, out string) {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
	if out != "-" {
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memexplore-bench:", err)
	os.Exit(1)
}

// Report is the BENCH_service.json schema.
type Report struct {
	Timestamp string     `json:"timestamp"`
	Config    RunConfig  `json:"config"`
	Sync      PhaseStats `json:"sync"`
	Jobs      JobStats   `json:"jobs"`
}

// RunConfig records what produced the numbers.
type RunConfig struct {
	Addr        string `json:"addr,omitempty"`
	InProcess   bool   `json:"in_process"`
	Concurrency int    `json:"concurrency"`
	Requests    int    `json:"requests"`
	Jobs        int    `json:"jobs"`
	Smoke       bool   `json:"smoke"`
}

// PhaseStats summarizes one latency distribution.
type PhaseStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// JobStats splits the async pipeline into submit (time to 202) and
// end-to-end (submit to observed terminal state) distributions.
type JobStats struct {
	Submitted  int        `json:"submitted"`
	ResultHits int        `json:"result_hits"`
	Submit     PhaseStats `json:"submit"`
	Complete   PhaseStats `json:"complete"`
}

// kernelMix cycles request bodies across kernels and option subsets so
// the run mixes cache misses with hits, like real traffic.
var kernelMix = []string{"compress", "sor", "matmul", "fir"}

// exploreBody builds the i-th request body. Smoke runs shrink the sweep
// space so CI finishes in seconds.
func exploreBody(i int, smoke bool) []byte {
	sizes := "[64,128,256,512]"
	tilings := "[1,2,4]"
	if smoke {
		sizes = "[32,64]"
		tilings = "[1]"
	}
	body := fmt.Sprintf(`{"kind":"explore","kernel":%q,"options":{"cache_sizes":%s,"line_sizes":[8,16],"assocs":[1,2],"tilings":%s}}`,
		kernelMix[i%len(kernelMix)], sizes, tilings)
	return []byte(body)
}

// runSyncPhase fans requests over conc workers against /v1/explore.
func runSyncPhase(base string, conc, requests int, smoke bool) (PhaseStats, error) {
	latencies := make([]float64, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				begin := time.Now()
				errs[i] = postOK(base+"/v1/explore", "application/json", exploreBody(i, smoke))
				latencies[i] = float64(time.Since(begin)) / float64(time.Millisecond)
			}
		}()
	}
	for i := 0; i < requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return summarize(latencies, errs), nil
}

// runJobPhase submits jobs over conc workers and polls each to a
// terminal state.
func runJobPhase(base string, conc, jobCount int, smoke bool) (JobStats, error) {
	submitMs := make([]float64, jobCount)
	completeMs := make([]float64, jobCount)
	errs := make([]error, jobCount)
	hits := make([]bool, jobCount)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				begin := time.Now()
				rec, err := submitJob(base, exploreBody(i, smoke))
				submitMs[i] = float64(time.Since(begin)) / float64(time.Millisecond)
				if err != nil {
					errs[i] = err
					continue
				}
				hits[i] = rec.Cached
				rec, err = awaitJob(base, rec.ID)
				completeMs[i] = float64(time.Since(begin)) / float64(time.Millisecond)
				if err != nil {
					errs[i] = err
				} else if rec.State != "done" {
					errs[i] = fmt.Errorf("job %s ended %s", rec.ID, rec.State)
				}
			}
		}()
	}
	for i := 0; i < jobCount; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	stats := JobStats{
		Submitted: jobCount,
		Submit:    summarize(submitMs, errs),
		Complete:  summarize(completeMs, errs),
	}
	for _, h := range hits {
		if h {
			stats.ResultHits++
		}
	}
	return stats, nil
}

// jobRecord is the slice of the job record the harness reads.
type jobRecord struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

// postOK posts a body and drains the response, failing on non-2xx.
func postOK(url, contentType string, body []byte) error {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// submitJob posts to /v1/jobs and decodes the accepted record.
func submitJob(base string, body []byte) (jobRecord, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobRecord{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		blob, _ := io.ReadAll(resp.Body)
		return jobRecord{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	var rec jobRecord
	return rec, json.NewDecoder(resp.Body).Decode(&rec)
}

// awaitJob polls a job until it reaches a terminal state.
func awaitJob(base, id string) (jobRecord, error) {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return jobRecord{}, err
		}
		var rec jobRecord
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			return jobRecord{}, err
		}
		switch rec.State {
		case "done", "failed", "canceled":
			return rec, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// summarize folds a latency slice (and its error slice) into PhaseStats.
func summarize(ms []float64, errs []error) PhaseStats {
	st := PhaseStats{Requests: len(ms)}
	ok := make([]float64, 0, len(ms))
	var sum float64
	for i, v := range ms {
		if errs[i] != nil {
			st.Errors++
			continue
		}
		ok = append(ok, v)
		sum += v
		if v > st.MaxMs {
			st.MaxMs = v
		}
	}
	if len(ok) == 0 {
		return st
	}
	sort.Float64s(ok)
	st.P50Ms = percentile(ok, 0.50)
	st.P99Ms = percentile(ok, 0.99)
	st.MeanMs = sum / float64(len(ok))
	return st
}

// percentile reads quantile q from an ascending-sorted slice (nearest-
// rank method).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
