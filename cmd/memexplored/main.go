// Command memexplored serves the MemExplore sweep as a long-running
// HTTP/JSON API: POST /v1/explore and /v1/aggregate run (or recall from
// the result tier) design-space sweeps, POST /v1/jobs runs them
// asynchronously with progress polling and SSE streaming under
// /v1/jobs/{id}, GET /v1/kernels lists the registry, /healthz and
// /debug/vars expose liveness and counters. See docs/SERVICE.md for the
// wire reference and curl examples.
//
// Usage:
//
//	memexplored [-addr :8080] [-sweeps 4] [-workers 0] [-cache 256] [-max-body 8388608]
//	            [-job-ttl 15m] [-jobs-dir DIR] [-peers URL,URL] [-drain 30s] [-pprof]
//
// -sweeps bounds every sweep the daemon runs, synchronous requests and
// async jobs alike; -cache bounds the in-memory store of job records and
// recalled results.
//
// SIGINT/SIGTERM trigger a graceful shutdown: new sweeps and job
// submissions are rejected with 503 while in-flight work drains for up
// to -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memexplore/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "memexplored:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is canceled. When ready is
// non-nil the bound listen address is sent on it once the listener is
// up — the smoke test uses this with -addr 127.0.0.1:0.
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("memexplored", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	sweeps := fs.Int("sweeps", 4, "max concurrent sweeps, sync requests and jobs alike (slot pool size)")
	workers := fs.Int("workers", 0, "goroutines per sweep (0 = GOMAXPROCS)")
	cacheN := fs.Int("cache", 256, "in-memory store capacity in entries: job records and recalled results (negative disables recall)")
	maxBody := fs.Int64("max-body", 0, "request-body size limit in bytes (0 = 8 MiB default)")
	jobTTL := fs.Duration("job-ttl", 15*time.Minute, "how long finished job records and results stay readable (in-memory store)")
	jobsDir := fs.String("jobs-dir", "", "store job records and results as files under this directory (shared result tier; overrides -cache's capacity, -job-ttl becomes the cleanup TTL)")
	peers := fs.String("peers", "", "comma-separated base URLs of sibling replicas for distributed sweeps (e.g. http://host:8081,http://host:8082)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof profiling handlers under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := service.Config{
		MaxConcurrentSweeps: *sweeps,
		SweepWorkers:        *workers,
		CacheEntries:        *cacheN,
		MaxBodyBytes:        *maxBody,
		JobTTL:              *jobTTL,
		JobsDir:             *jobsDir,
		Peers:               splitPeers(*peers),
	}
	return serve(ctx, *addr, cfg, *drain, *pprofOn, logw, ready)
}

// splitPeers parses the -peers list, dropping empty entries and
// trailing slashes so "http://a:8081/," round-trips cleanly.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// debugMux wraps the service handler with the net/http/pprof endpoints
// mounted explicitly (the daemon never serves http.DefaultServeMux, so
// the profiling handlers exist only behind -pprof).
func debugMux(svc http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", svc)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the daemon until ctx is canceled, then drains gracefully.
func serve(ctx context.Context, addr string, cfg service.Config, drain time.Duration, pprofOn bool, logw io.Writer, ready chan<- string) error {
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger := log.New(logw, "memexplored ", log.LstdFlags)
	var handler http.Handler = svc
	if pprofOn {
		handler = debugMux(svc)
		logger.Printf("pprof enabled under /debug/pprof/")
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Printf("listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining in-flight sweeps for up to %s", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Printf("bye")
	return nil
}
