package main

// The three workloads, end to end: set up the system under test (timed
// several times), warm it up from a disjoint seed stream, drive whole
// seeded decks through the timed window, read the counters, stop
// everything, then run the oracle.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"memexplore/internal/core"
	"memexplore/internal/kernels"
)

// scale sizes a run's inputs.
type scale struct {
	kernels         []string // explore-http deck kernels
	aggregates      int      // leave-one-out MPEG aggregates per explore-http deck
	traceRecords    int      // records per trace body
	artifactRecords [2]int   // records of the idle and dense CLI artifacts
}

// fullScale is the benchmark: the five paper kernels and the nine MPEG
// kernels; trace bodies and artifacts sized so one operation takes
// ~0.1 s and a window holds more than 100 of them (p90 then has at
// least ten samples beyond it).
var fullScale = scale{
	kernels:         append(paperKernels(), mpegKernels()...),
	aggregates:      9,
	traceRecords:    150_000,
	artifactRecords: [2]int{6_000_000, 250_000},
}

// smokeScale keeps every workload's shape at a size the test suite can
// run in seconds.
var smokeScale = scale{
	kernels:         []string{"compress", "mpeg_vld"},
	aggregates:      1,
	traceRecords:    20_000,
	artifactRecords: [2]int{1_500_000, 100_000}, // ~1000 idle blocks: a 1% sample is never empty
}

func paperKernels() []string {
	var names []string
	for _, n := range kernels.PaperBenchmarks() {
		names = append(names, n.Name)
	}
	return names
}

func mpegKernels() []string {
	var names []string
	for _, k := range kernels.MPEGKernels() {
		names = append(names, k.Nest.Name)
	}
	return names
}

// workload is one named traffic mix; README.md gives the reason for
// each.
type workload struct {
	name string
	run  func(ctx context.Context, r *runEnv) (*measurement, error)
	// replay is the workload's traced in-process layer run.
	replay func(ctx context.Context, r *runEnv, tr *tracer) error
}

var workloads = []workload{
	{name: "explore-http", run: runExplore, replay: replayExplore},
	{name: "trace-exact-http", run: runTraceHTTP, replay: replayTrace},
	{name: "trace-sampled-cli", run: runSampledCLI, replay: replaySampled},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runEnv is what a run of one workload works with.
type runEnv struct {
	root   string // repository checkout
	work   string // this run's working directory, removed at its end
	bin    string // directory of the built binaries
	seed   int64
	window time.Duration
	sc     scale
}

// measurement is what an end-to-end run of one workload observed.
type measurement struct {
	setups   []time.Duration
	win      window
	rssMB    float64
	counters map[string]float64 // expvar deltas, job timings, accuracy
	failures []string
}

// setupRuns decides how many set-ups a run times: at least five, and
// more while they have taken under a second in total (at most 15) — a
// cheap set-up is repeated until its median is steady.
func setupRuns(done int, total time.Duration) bool {
	return done < 5 || (total < time.Second && done < 15)
}

// setupServers starts the system under test repeatedly (see setupRuns),
// timing each start to its first 200 from /healthz, and keeps the last
// one running.
func setupServers(start func() ([]*server, time.Duration, error)) ([]*server, []time.Duration, error) {
	var times []time.Duration
	var total time.Duration
	for {
		srvs, d, err := start()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
		total += d
		if !setupRuns(len(times), total) {
			return srvs, times, nil
		}
		for _, s := range srvs {
			s.stop()
		}
	}
}

// observe reads the servers' counters around a window and their peak
// resident set at its end.
func observe(srvs []*server, client *http.Client, body func() window) (window, vars, float64, error) {
	var before, after []vars
	for _, s := range srvs {
		v, err := readVars(client, s.base)
		if err != nil {
			return window{}, nil, 0, err
		}
		before = append(before, v)
	}
	w := body()
	var rss float64
	for i, s := range srvs {
		v, err := readVars(client, s.base)
		if err != nil {
			return window{}, nil, 0, err
		}
		after = append(after, v.delta(before[i]))
		mb, err := peakRSSMB(s.pid)
		if err != nil {
			return window{}, nil, 0, err
		}
		rss = max(rss, mb)
	}
	return w, sumVars(after...), rss, nil
}

// warmUp runs one deck from the disjoint "warmup" stream and fails on
// any error, so a broken system under test stops the run before the
// window.
func warmUp(ctx context.Context, t *target, clients int, deck func(k, firstID int) []*op) (window, error) {
	w := drive(ctx, t, clients, 0, deck)
	for _, o := range w.outcomes {
		if o.err != nil {
			return w, fmt.Errorf("warm-up op %d (%s): %w", o.op.id, o.op.kind, o.err)
		}
	}
	return w, nil
}

// markChecks puts one in every ops of the given kinds into the oracle's
// sample, at a seed-derived phase; jobs are always checked.
func markChecks(ops []*op, seed int64, every int) {
	phase := rng(seed, "check-phase", 0).Intn(every)
	for _, o := range ops {
		switch o.kind {
		case kindJob:
			o.check = true
		case kindExplore, kindAggregate, kindTrace, kindCLI:
			o.check = (o.id+phase)%every == 0
		}
	}
}

// exploreClients is explore-http's closed-loop client count. With two
// clients on two cores, which sweeps happen to overlap the long matmul
// sweeps changed from run to run and moved p50 by 25%; one client
// measures each sweep's own latency.
const exploreClients = 1

func runExplore(ctx context.Context, r *runEnv) (*measurement, error) {
	client := newClient(exploreClients)
	srvs, setups, err := setupServers(func() ([]*server, time.Duration, error) {
		s, d, err := startServer(ctx, client, filepath.Join(r.bin, "memexplored"))
		return []*server{s}, d, err
	})
	if err != nil {
		return nil, err
	}
	defer srvs[0].stop()
	t := &target{client: client, base: srvs[0].base}
	// A full deck: the first one grows the server's heap to its steady
	// state, which measured decks must not pay for.
	if _, err := warmUp(ctx, t, exploreClients, func(k, id int) []*op { return exploreDeck(r.seed, "warmup", k, r.sc, id) }); err != nil {
		return nil, err
	}
	deck := func(k, id int) []*op {
		ops := exploreDeck(r.seed, "explore", k, r.sc, id)
		markChecks(ops, r.seed, 8)
		return ops
	}
	w, counters, rss, err := observe(srvs, client, func() window { return drive(ctx, t, exploreClients, r.window, deck) })
	if err != nil {
		return nil, err
	}
	srvs[0].stop()
	m := &measurement{setups: setups, win: w, rssMB: rss, counters: serviceCounters(counters, len(w.outcomes))}
	jobCounters(w.outcomes, m.counters)
	or := &oracle{seed: r.seed}
	m.failures = or.verify(ctx, w.outcomes)
	return m, nil
}

// runTraceHTTP drives trace-exact-http: a coordinator and a peer over one
// jobs directory; mxt v2 and din bodies swept by the coordinator itself,
// and mxt v2 bodies sent with "shards": -1, split between the two.
func runTraceHTTP(ctx context.Context, r *runEnv) (*measurement, error) {
	client := newClient(1)
	bin := filepath.Join(r.bin, "memexplored")
	setupN := 0
	srvs, setups, err := setupServers(func() ([]*server, time.Duration, error) {
		setupN++
		jobsDir := filepath.Join(r.work, fmt.Sprintf("jobs-%d", setupN))
		peer, d1, err := startServer(ctx, client, bin, "-jobs-dir", jobsDir)
		if err != nil {
			return nil, 0, err
		}
		coord, d2, err := startServer(ctx, client, bin, "-jobs-dir", jobsDir, "-peers", peer.base)
		if err != nil {
			peer.stop()
			return nil, 0, err
		}
		return []*server{coord, peer}, d1 + d2, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range srvs {
			s.stop()
		}
	}()
	target := func(stream string) *target {
		return &target{client: client, base: srvs[0].base,
			body: func(o *op) []byte { return traceBody(r.seed, stream, o, r.sc.traceRecords) }}
	}
	if _, err := warmUp(ctx, target("warmup"), 1, func(k, id int) []*op {
		return traceDeck(r.seed, "warmup", k, r.sc.traceRecords, id)
	}); err != nil {
		return nil, err
	}
	deck := func(k, id int) []*op {
		ops := traceDeck(r.seed, "trace", k, r.sc.traceRecords, id)
		markChecks(ops, r.seed, 8)
		return ops
	}
	w, counters, rss, err := observe(srvs, client, func() window { return drive(ctx, target("trace"), 1, r.window, deck) })
	if err != nil {
		return nil, err
	}
	for _, s := range srvs {
		s.stop()
	}
	m := &measurement{setups: setups, win: w, rssMB: rss, counters: serviceCounters(counters, len(w.outcomes))}
	or := &oracle{seed: r.seed, stream: "trace", records: r.sc.traceRecords, tracePoints: tracePoints()}
	m.failures = or.verify(ctx, w.outcomes)
	return m, nil
}

func runSampledCLI(ctx context.Context, r *runEnv) (*measurement, error) {
	srcs, arts, err := writeArtifactSources(r)
	if err != nil {
		return nil, err
	}
	cli := filepath.Join(r.bin, "memexplore")
	var setups []time.Duration
	var spent time.Duration
	for setupRuns(len(setups), spent) {
		var total time.Duration
		for a := range arts {
			d, err := convert(ctx, cli, srcs[a], arts[a])
			if err != nil {
				return nil, err
			}
			total += d
		}
		setups = append(setups, total)
		spent += total
	}
	// Written back now, not by the kernel's flusher in the middle of the
	// window.
	for _, path := range append(srcs[:], arts[:]...) {
		if err := syncFile(path); err != nil {
			return nil, err
		}
	}
	// The warm-up invocations are the ones whose peak resident set is
	// watched (polling /proc every millisecond), so the window's are timed
	// undisturbed.
	t := &target{cli: cli, artifacts: arts, outPath: filepath.Join(r.work, "sweep.json"), watchRSS: true}
	warm, err := warmUp(ctx, t, 1, func(k, id int) []*op {
		var ops []*op
		for j := 0; j < rssDecks; j++ {
			ops = append(ops, cliDeck(r.seed, "warmup", j, r.sc.artifactRecords, id+len(ops))...)
		}
		return ops
	})
	if err != nil {
		return nil, err
	}
	t.watchRSS = false
	deck := func(k, id int) []*op {
		ops := cliDeck(r.seed, "cli", k, r.sc.artifactRecords, id)
		markChecks(ops, r.seed, 8)
		return ops
	}
	w := drive(ctx, t, 1, r.window, deck)
	m := &measurement{setups: setups, win: w, rssMB: cliPeakRSS(warm.outcomes), counters: map[string]float64{}}
	or := &oracle{seed: r.seed, artifacts: arts, tracePoints: tracePoints()}
	m.failures = or.verify(ctx, w.outcomes)
	if p90, match, err := or.accuracy(w.outcomes); err == nil {
		m.counters["sampled_missrate_err_p90"] = p90
		m.counters["sampled_argmin_match_frac"] = match
	} else {
		m.failures = append(m.failures, err.Error())
	}
	return m, nil
}

// sampleRate is the SHARDS rate of every trace-sampled-cli invocation.
const sampleRate = 0.01

// rssDecks is how many decks trace-sampled-cli warms up on, watching
// each invocation's peak resident set.
const rssDecks = 3

// cliPeakRSS is one invocation's peak resident set: the median over the
// watched invocations of each artifact, the larger of the two.
func cliPeakRSS(outcomes []outcome) float64 {
	var per [2][]float64
	for _, o := range outcomes {
		per[o.op.artifact] = append(per[o.op.artifact], o.rssMB)
	}
	return max(median(per[0]), median(per[1]))
}

// syncFile flushes a written file to disk.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeArtifactSources writes the two artifacts' din sources (untimed)
// and returns their paths and the paths their mxt v2 artifacts go to.
func writeArtifactSources(r *runEnv) (srcs, arts [2]string, err error) {
	for a, name := range artifactNames {
		srcs[a] = filepath.Join(r.work, name+".din")
		arts[a] = filepath.Join(r.work, name+".mxt")
		f, err := os.Create(srcs[a])
		if err != nil {
			return srcs, arts, err
		}
		werr := encodeTrace(f, artifactSource(r.seed, a, r.sc.artifactRecords[a]), "din")
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return srcs, arts, fmt.Errorf("writing %s: %w", srcs[a], werr)
		}
	}
	return srcs, arts, nil
}

// convert transcodes a din source into an indexed mxt v2 artifact with
// the CLI — the user's one-time cost before sampled sweeps — and times it.
func convert(ctx context.Context, cli, src, art string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, cli, "-trace", src, "-convert", art)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	out, err := cmd.CombinedOutput()
	d := time.Since(begin)
	if err != nil {
		return 0, fmt.Errorf("converting %s: %w: %s", src, err, out)
	}
	return d, nil
}

// tracePoints is the point count of a DefaultOptions trace sweep.
func tracePoints() int {
	plan, err := core.TraceSweepPlan(core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return plan.Points
}

// serviceCounters derives the per-layer counters of the servers' expvar
// deltas over the window.
func serviceCounters(d vars, ops int) map[string]float64 {
	per := func(x float64) float64 { return x / float64(max(ops, 1)) }
	c := map[string]float64{
		"service.dist_shards_per_op":        per(d["memexplored.dist_shards_dispatched"]),
		"service.dist_bytes_shipped_per_op": per(d["memexplored.dist_bytes_shipped"]),
		"service.dist_peer_failures":        d["memexplored.dist_peer_failures"],
		"runtime.alloc_mb_per_op":           per(d["memstats.TotalAlloc"] / (1 << 20)),
		"runtime.gc_per_op":                 per(d["memstats.NumGC"]),
		"runtime.gc_pause_ms_per_op":        per(d["memstats.PauseTotalNs"] / 1e6),
		"core.chunk_stall_ms_per_op_max":    per(stallUpperBoundMS(d)),
	}
	if lookups := d["memexplored.cache_hits"] + d["memexplored.cache_misses"]; lookups > 0 {
		c["service.cache_hit_frac"] = d["memexplored.cache_hits"] / lookups
	}
	if n := d["memexplored.jobs_submitted"]; n > 0 {
		c["jobs.result_hit_frac"] = d["memexplored.jobs_result_hits"] / n
	}
	return c
}

// stallUpperBoundMS bounds the summed chunk stall from the
// trace_chunk_stall_ms histogram deltas: each stall counted at its
// bucket's upper bound (overflow at the last bound).
func stallUpperBoundMS(d vars) float64 {
	const prefix = "memexplored.trace_chunk_stall_ms.buckets.le_"
	var sum, last float64
	for k, n := range d {
		bound, ok := strings.CutPrefix(k, prefix)
		if !ok || bound == "inf" {
			continue
		}
		if le, err := strconv.ParseFloat(bound, 64); err == nil {
			sum += n * le
			last = max(last, le)
		}
	}
	return sum + d[prefix+"inf"]*last
}

// jobCounters adds the queue-wait and run-time medians of the window's
// job records, and the median job latency (submit to terminal event).
func jobCounters(outcomes []outcome, c map[string]float64) {
	var wait, run, latency []float64
	for _, o := range outcomes {
		if o.op.kind != kindJob || o.err != nil {
			continue
		}
		var rec jobRecord
		if json.Unmarshal(o.resp, &rec) != nil || rec.StartedAt == nil || rec.FinishedAt == nil {
			continue
		}
		wait = append(wait, ms(rec.StartedAt.Sub(rec.CreatedAt)))
		run = append(run, ms(rec.FinishedAt.Sub(*rec.StartedAt)))
		latency = append(latency, ms(o.latency))
	}
	if len(latency) > 0 {
		c["jobs.queue_wait_ms_p50"] = median(wait)
		c["jobs.run_ms_p50"] = median(run)
		c["job_latency_p50_ms"] = median(latency)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
