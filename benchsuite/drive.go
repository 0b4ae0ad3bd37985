package main

// The load generator: one process, a fixed number of closed-loop
// clients (each sends its next operation only after the previous one
// completed), whole seeded decks, and one timed window.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// optionsHeader carries a trace sweep's options (the service's
// X-Memexplore-Options header).
const optionsHeader = "X-Memexplore-Options"

// newClient returns the one HTTP client of a run: its keep-alive pool
// holds exactly one connection per closed-loop client, so no request
// re-dials and no more than that many connections ever open.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// outcome is what one operation did.
type outcome struct {
	op      *op
	latency time.Duration
	err     error
	resp    []byte  // response body; for jobs, the terminal job record
	rssMB   float64 // CLI ops: the invocation's peak resident set
}

// target is where an operation goes: a server for HTTP ops, the CLI
// binary and its artifacts for CLI ops.
type target struct {
	client    *http.Client
	base      string
	body      func(*op) []byte // renders a trace op's body
	cli       string           // memexplore binary
	artifacts [2]string        // mxt v2 artifact paths
	outPath   string           // CLI -json output path
	watchRSS  bool             // CLI ops: poll the invocation's peak resident set
}

// do runs one operation and times it: for HTTP ops from sending the
// request to the last response byte (jobs: to the terminal SSE event),
// for CLI ops from exec to exit. Trace bodies are rendered by the
// caller, before the clock starts.
func (t *target) do(ctx context.Context, o *op) outcome {
	out := outcome{op: o}
	switch o.kind {
	case kindExplore, kindRepeat:
		out.latency, out.resp, out.err = t.post(ctx, "/v1/explore", "application/json", "", o.body)
	case kindAggregate:
		out.latency, out.resp, out.err = t.post(ctx, "/v1/aggregate", "application/json", "", o.body)
	case kindJob:
		out.latency, out.resp, out.err = t.job(ctx, o.body)
	case kindTrace:
		out.latency, out.resp, out.err = t.post(ctx, "/v1/explore-trace", "application/octet-stream", o.traceHeader(), o.body)
	case kindCLI:
		out.latency, out.rssMB, out.err = t.runCLI(ctx, o)
		if out.err == nil {
			out.resp, out.err = os.ReadFile(t.outPath)
		}
	}
	return out
}

// post sends one request and reads the whole response.
func (t *target) post(ctx context.Context, path, contentType, opts string, body []byte) (time.Duration, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if opts != "" {
		req.Header.Set(optionsHeader, opts)
	}
	begin := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	elapsed := time.Since(begin)
	if err != nil {
		return elapsed, nil, fmt.Errorf("POST %s: reading response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return elapsed, data, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return elapsed, data, nil
}

// job submits an explore job and follows its SSE event stream to the
// terminal event, whose data is the final job record (result included).
// Following the stream, not polling, keeps the measured latency free of
// any poll interval.
func (t *target) job(ctx context.Context, body []byte) (time.Duration, []byte, error) {
	begin := time.Now()
	_, accepted, err := t.post(ctx, "/v1/jobs", "application/json", "", body)
	if err != nil {
		return time.Since(begin), nil, err
	}
	var rec struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(accepted, &rec); err != nil || rec.ID == "" {
		return time.Since(begin), nil, fmt.Errorf("POST /v1/jobs: no job id in %q", accepted)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v1/jobs/"+rec.ID+"/events", nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return time.Since(begin), nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Since(begin), nil, fmt.Errorf("GET /v1/jobs/%s/events: %s", rec.ID, resp.Status)
	}
	event, data, err := terminalEvent(resp.Body)
	elapsed := time.Since(begin)
	if err != nil {
		return elapsed, nil, fmt.Errorf("job %s: %w", rec.ID, err)
	}
	if event != "done" {
		return elapsed, data, fmt.Errorf("job %s ended %s: %s", rec.ID, event, data)
	}
	return elapsed, data, nil
}

// terminalEvent reads a server-sent event stream until an event named
// done, failed or canceled, and returns its name and data.
func terminalEvent(r io.Reader) (string, []byte, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var event string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		trimmed := bytes.TrimRight(line, "\r\n")
		switch {
		case len(trimmed) == 0 && len(line) > 0: // end of one event
			if event == "done" || event == "failed" || event == "canceled" {
				return event, data, nil
			}
			event, data = "", nil
		case bytes.HasPrefix(trimmed, []byte("event:")):
			event = strings.TrimSpace(string(trimmed[len("event:"):]))
		case bytes.HasPrefix(trimmed, []byte("data:")):
			data = append(data, bytes.TrimSpace(trimmed[len("data:"):])...)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return "", nil, errors.New("event stream ended before a terminal event")
			}
			return "", nil, err
		}
	}
}

// runCLI runs one sampled sweep of an artifact through the memexplore
// CLI and returns its wall time and, when t.watchRSS is set, its peak
// resident set. The peak is the child's own VmHWM, polled every
// millisecond while it runs: rusage's Maxrss would also carry the load
// generator's resident set, which the child's address space shared until
// exec.
func (t *target) runCLI(ctx context.Context, o *op) (time.Duration, float64, error) {
	cmd := exec.CommandContext(ctx, t.cli, "-trace", t.artifacts[o.artifact],
		"-sample-rate", strconv.FormatFloat(sampleRate, 'g', -1, 64),
		"-sample-seed", strconv.FormatUint(o.sampleSeed, 10), "-json", t.outPath)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	type exit struct {
		err     error
		elapsed time.Duration
	}
	exited := make(chan exit, 1)
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, fmt.Errorf("starting memexplore: %w", err)
	}
	go func() {
		err := cmd.Wait()
		exited <- exit{err, time.Since(begin)}
	}()
	var tick <-chan time.Time
	if t.watchRSS {
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		tick = ticker.C
	}
	var rss float64
	for {
		if t.watchRSS {
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				rss = max(rss, mb)
			}
		}
		select {
		case e := <-exited:
			if e.err != nil {
				return e.elapsed, rss, fmt.Errorf("memexplore %s: %w: %s", artifactNames[o.artifact], e.err, bytes.TrimSpace(stderr.Bytes()))
			}
			return e.elapsed, rss, nil
		case <-tick:
		}
	}
}

// window is the result of driving one workload.
type window struct {
	outcomes []outcome
	// busy is the window's wall time minus the time the load generator
	// spent between operations rendering trace bodies and collecting its
	// own garbage.
	busy time.Duration
}

// opDeadline bounds how long a window may run past its length: ample
// for the deck in progress, whose longest operation takes about a second.
const opDeadline = time.Minute

// drive runs whole decks through clients closed-loop clients until the
// window's busy time reaches length, finishing the deck in progress, so
// every run measures complete decks. Repeats wait for the operation they
// repeat to be answered before their clock starts.
func drive(ctx context.Context, t *target, clients int, length time.Duration, deck func(k, firstID int) []*op) window {
	// A hung system under test fails its operations ("timed out") instead
	// of holding the run past its time limit.
	ctx, cancel := context.WithTimeout(ctx, length+opDeadline)
	defer cancel()
	var (
		mu       sync.Mutex
		outcomes []outcome
		offClock atomic.Int64 // nanoseconds spent between operations
		done     = make(map[*op]chan struct{})
	)
	begin := time.Now()
	busy := func() time.Duration { return time.Since(begin) - time.Duration(offClock.Load()) }

	work := make(chan *op)
	go func() {
		defer close(work)
		next := 0
		for k := 0; k == 0 || busy() < length; k++ {
			ops := deck(k, next)
			next += len(ops)
			mu.Lock()
			for _, o := range ops {
				if o.retain {
					done[o] = make(chan struct{})
				}
			}
			mu.Unlock()
			for _, o := range ops {
				select {
				case work <- o:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				if o.kind == kindRepeat {
					mu.Lock()
					ch := done[o.target]
					mu.Unlock()
					<-ch
				}
				// Off the clock: render trace bodies now (a whole run's
				// worth would not fit in memory), then collect the load
				// generator's garbage, so its collector never runs
				// alongside a request and takes a core from the server.
				start := time.Now()
				if o.kind == kindTrace {
					o.body = t.body(o)
				}
				runtime.GC()
				offClock.Add(int64(time.Since(start)))
				res := t.do(ctx, o)
				if o.kind == kindTrace {
					o.body = nil // the oracle re-renders the bodies it checks
				}
				mu.Lock()
				outcomes = append(outcomes, res)
				if ch, ok := done[o]; ok {
					close(ch)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return window{outcomes: outcomes, busy: busy()}
}
