// The distributed phase (-dist): measure the multi-process speedup of
// cross-replica trace sweeps. The harness re-execs itself as replica
// subprocesses — each a full memexplored service pinned to GOMAXPROCS=1
// over one shared jobs directory — then drives one coordinator with
// shards=1/2/4 over the same synthetic mxt v2 trace. Since the
// container typically pins GOMAXPROCS, the per-process worker pool
// cannot parallelize anything; whatever speedup appears is the
// distributed coordinator's. Every leg's response body must be
// byte-identical (the merge contract); the timing report lands in
// BENCH_dist.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"memexplore/internal/extrace"
	"memexplore/internal/service"
	"memexplore/internal/trace"
)

// DistReport is the BENCH_dist.json schema.
type DistReport struct {
	Timestamp     string     `json:"timestamp"`
	Config        DistConfig `json:"config"`
	Legs          []DistLeg  `json:"legs"`
	ByteIdentical bool       `json:"byte_identical"`
	PeerFailures  int64      `json:"peer_failures"`
}

// readIntVar fetches one memexplored counter from a replica's
// /debug/vars page (0 when unreachable or absent).
func readIntVar(addr, name string) int64 {
	resp, err := http.Get(addr + "/debug/vars")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var page struct {
		Memexplored map[string]json.RawMessage `json:"memexplored"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return 0
	}
	var v int64
	_ = json.Unmarshal(page.Memexplored[name], &v)
	return v
}

// DistConfig records the workload that produced the numbers. HostCPUs
// matters for reading the wall-clock legs: with fewer host cores than
// replicas the processes time-share and the measured speedup is
// contention-bound (on a single-core host it cannot exceed 1×); the
// isolated-shard projection is the hardware-independent number.
type DistConfig struct {
	Records    int  `json:"records"`
	TraceBytes int  `json:"trace_bytes"`
	Iterations int  `json:"iterations"`
	HostCPUs   int  `json:"host_cpus"`
	Smoke      bool `json:"smoke"`
}

// DistLeg is one replica-count measurement. Seconds is the best (min)
// wall time over the iterations; Speedup is relative to the one-replica
// leg of the same run. IsolatedShardMaxSeconds is the slowest single
// shard of this leg's plan timed alone (no concurrent legs competing
// for cores) — the critical path a fleet with one genuinely idle core
// per replica would ride — and ProjectedSpeedup is the one-replica time
// over that critical path.
type DistLeg struct {
	Replicas                int     `json:"replicas"`
	Shards                  int     `json:"shards"`
	Seconds                 float64 `json:"seconds"`
	RecordsPerSec           float64 `json:"records_per_sec"`
	Speedup                 float64 `json:"speedup"`
	IsolatedShardMaxSeconds float64 `json:"isolated_shard_max_seconds,omitempty"`
	ProjectedSpeedup        float64 `json:"projected_speedup,omitempty"`
}

// runReplica is the hidden subprocess mode: serve the full memexplored
// stack on an ephemeral port, announce the address on stdout, and exit
// when stdin closes (i.e. when the parent finishes or dies).
func runReplica(jobsDir, peers string) {
	svc := service.MustNew(service.Config{
		MaxConcurrentSweeps: 2,
		MaxBodyBytes:        256 << 20,
		JobsDir:             jobsDir,
		Peers:               splitList(peers),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ADDR http://%s\n", ln.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	fatal(http.Serve(ln, svc))
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// replica is one spawned subprocess server.
type replica struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// startReplica re-execs this binary in replica mode and waits for its
// address line. GOMAXPROCS=1 pins each replica to one scheduler proc so
// the measured speedup is the multi-process one.
func startReplica(jobsDir, peers string) (*replica, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-replica-jobs-dir", jobsDir, "-replica-peers", peers)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("replica produced no address: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ADDR ")
	if !ok {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("unexpected replica banner %q", line)
	}
	go func() { _, _ = io.Copy(io.Discard, br) }()
	return &replica{cmd: cmd, stdin: stdin, addr: addr}, nil
}

func (r *replica) stop() {
	_ = r.stdin.Close()
	_ = r.cmd.Process.Kill()
	_, _ = r.cmd.Process.Wait()
}

// synthDistTrace encodes a deterministic hot/cold reference stream as
// mxt v2: stride-64 walks over a hot 64KB window interleaved with
// strided passes over fresh large arrays — enough reuse for the LRU
// stacks to work and enough footprint for the sweep to cost real time.
func synthDistTrace(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, 0, n)
	const hotBase = uint64(1) << 20
	arrayBase := uint64(64) << 20
	for len(refs) < n {
		if rng.Intn(3) > 0 {
			seg := 4096 + rng.Intn(4096)
			off := uint64(rng.Intn(1024)) * 64
			for i := 0; i < seg && len(refs) < n; i++ {
				off = (off + 64) % (64 << 10)
				refs = append(refs, trace.Ref{Addr: hotBase + off, Kind: trace.Kind(rng.Intn(3))})
			}
		} else {
			arrayBase += uint64(4) << 20
			seg := 8192 + rng.Intn(8192)
			for i := 0; i < seg && len(refs) < n; i++ {
				refs = append(refs, trace.Ref{Addr: arrayBase + uint64(i)*32, Kind: trace.Read})
			}
		}
	}
	var buf bytes.Buffer
	if _, err := extrace.WriteBinaryV2(&buf, trace.FromRefs(refs).Reader()); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

// distHeader is the X-Memexplore-Options document for one leg: the
// shared sweep space plus the shard count (0 = plain local baseline).
func distHeader(shards int, smoke bool) string {
	space := `{"cache_sizes":[64,128,256,512,1024,2048,4096,8192,16384],"line_sizes":[8,16,32,64],"assocs":[1,2,4,8]}`
	if smoke {
		space = `{"cache_sizes":[32,64,128],"line_sizes":[8,16],"assocs":[1,2]}`
	}
	h := fmt.Sprintf(`{"kind":"explore-trace","options":%s`, space)
	if shards > 1 {
		h += fmt.Sprintf(`,"shards":%d`, shards)
	}
	return h + "}"
}

// shardHeader addresses one shard of an n-way plan for isolated timing:
// the internal shard-execution wire form, run synchronously on one
// replica with nothing else competing for the core.
func shardHeader(index, count int, smoke bool) string {
	h := strings.TrimSuffix(distHeader(0, smoke), "}")
	return h + fmt.Sprintf(`,"shard":{"index":%d,"count":%d}}`, index, count)
}

// runDistLeg posts one trace sweep and returns its wall time and
// response body.
func runDistLeg(coord, header string, payload []byte) (time.Duration, []byte, error) {
	req, err := http.NewRequest("POST", coord+"/v1/explore-trace", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(service.OptionsHeader, header)
	begin := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	elapsed := time.Since(begin)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("sweep: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return elapsed, body, nil
}

// runDistPhase spawns the replica fleet and measures each leg. Every
// iteration uses a fresh trace (fresh content keys, so no leg is
// answered from the shared result tier) and requires all legs of that
// iteration to return byte-identical bodies.
func runDistPhase(records, iters int, smoke bool) (*DistReport, error) {
	fleetPeers, legs := 3, []int{1, 2, 4}
	if smoke {
		fleetPeers, legs = 1, []int{1, 2}
	}
	jobsDir, err := os.MkdirTemp("", "memexplore-dist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jobsDir)

	var peers []*replica
	defer func() {
		for _, p := range peers {
			p.stop()
		}
	}()
	var peerURLs []string
	for i := 0; i < fleetPeers; i++ {
		p, err := startReplica(jobsDir, "")
		if err != nil {
			return nil, fmt.Errorf("starting peer %d: %w", i, err)
		}
		peers = append(peers, p)
		peerURLs = append(peerURLs, p.addr)
	}
	coord, err := startReplica(jobsDir, strings.Join(peerURLs, ","))
	if err != nil {
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	peers = append(peers, coord) // stopped with the rest

	report := &DistReport{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Config:        DistConfig{Records: records, Iterations: iters, HostCPUs: runtime.NumCPU(), Smoke: smoke},
		ByteIdentical: true,
	}
	best := make(map[int]float64)
	isolated := make(map[int]float64) // leg -> min-over-iters of max-shard time
	for iter := 0; iter < iters; iter++ {
		payload := synthDistTrace(int64(101+iter), records)
		report.Config.TraceBytes = len(payload)
		var ref []byte
		for _, n := range legs {
			elapsed, body, err := runDistLeg(coord.addr, distHeader(n, smoke), payload)
			if err != nil {
				return nil, fmt.Errorf("iteration %d, %d-replica leg: %w", iter, n, err)
			}
			if ref == nil {
				ref = body
			} else if !bytes.Equal(ref, body) {
				return nil, fmt.Errorf("iteration %d: %d-replica result is not byte-identical to the 1-replica result", iter, n)
			}
			if s := elapsed.Seconds(); best[n] == 0 || s < best[n] {
				best[n] = s
			}
			fmt.Fprintf(os.Stderr, "dist: iter %d, %d replica(s): %.2fs\n", iter, n, elapsed.Seconds())
		}
		// Isolated shard timings: each shard of each leg's plan alone on
		// one replica — the per-shard critical path without host-core
		// contention between legs.
		for _, n := range legs {
			if n < 2 {
				continue
			}
			var max float64
			for i := 0; i < n; i++ {
				elapsed, _, err := runDistLeg(coord.addr, shardHeader(i, n, smoke), payload)
				if err != nil {
					return nil, fmt.Errorf("iteration %d, isolated shard %d/%d: %w", iter, i, n, err)
				}
				if s := elapsed.Seconds(); s > max {
					max = s
				}
			}
			if isolated[n] == 0 || max < isolated[n] {
				isolated[n] = max
			}
			fmt.Fprintf(os.Stderr, "dist: iter %d, %d-way plan: slowest isolated shard %.2fs\n", iter, n, max)
		}
	}

	// The coordinator's own counters tell on silent degradation: a peer
	// failure means a shard fell back to local execution and the leg
	// measured a degenerate (single-process) run.
	report.PeerFailures = readIntVar(coord.addr, "dist_peer_failures")
	if report.PeerFailures > 0 {
		fmt.Fprintf(os.Stderr, "dist: warning: %d peer dispatches failed and fell back to local\n", report.PeerFailures)
	}

	for _, n := range legs {
		leg := DistLeg{
			Replicas:      n,
			Seconds:       best[n],
			RecordsPerSec: float64(records) / best[n],
			Speedup:       best[legs[0]] / best[n],
		}
		if n > 1 {
			leg.Shards = n
			leg.IsolatedShardMaxSeconds = isolated[n]
			if isolated[n] > 0 {
				leg.ProjectedSpeedup = best[legs[0]] / isolated[n]
			}
		}
		report.Legs = append(report.Legs, leg)
	}
	if !smoke && len(best) > 1 {
		wall, projected := best[1]/best[2], best[1]/isolated[2]
		switch {
		case report.Config.HostCPUs < 2:
			fmt.Fprintf(os.Stderr, "dist: single-core host: replicas time-share one core, wall speedup %.2fx is contention-bound; projected 2-replica speedup %.2fx\n", wall, projected)
			if projected < 1.4 {
				fmt.Fprintf(os.Stderr, "dist: warning: projected 2-replica speedup %.2fx below the 1.4x target\n", projected)
			}
		case wall < 1.4:
			fmt.Fprintf(os.Stderr, "dist: warning: 2-replica speedup %.2fx below the 1.4x target\n", wall)
		}
	}
	return report, nil
}
