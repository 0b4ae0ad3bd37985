package main

// The system under test: the real memexplored and memexplore binaries,
// built from the checkout once per run (untimed), started as child
// processes on loopback, and read through /healthz, /debug/vars and
// /proc.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles memexplored and memexplore into dir. It runs in
// the benchmark's own module, which resolves the memexplore module to
// the checkout; the Go build cache turns repeat builds into a relink.
func buildBinaries(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"memexplore/cmd/memexplored", "memexplore/cmd/memexplore")
	cmd.Dir = filepath.Join(root, "benchsuite")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building memexplored and memexplore: %w", err)
	}
	return nil
}

// children tracks every process the benchmark started, so an
// interrupted run still stops them all.
var children struct {
	sync.Mutex
	set map[*server]struct{}
}

// server is one running memexplored.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	pid  int
	once sync.Once
}

// listenWatcher is a server's stderr: it reports the address of the
// daemon's "listening on ADDR" log line once and discards the rest.
type listenWatcher struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf == nil {
		return len(p), nil // address already reported
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on "
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		if j := bytes.IndexByte(w.buf[i:], '\n'); j >= 0 {
			w.addr <- string(w.buf[i+len(marker) : i+j])
			w.buf = nil
		}
	}
	return len(p), nil
}

// startServer launches memexplored on an ephemeral loopback port with
// the given extra flags and returns once GET /healthz answers 200. The
// returned duration runs from process start to that first 200.
func startServer(ctx context.Context, client *http.Client, bin string, args ...string) (*server, time.Duration, error) {
	w := &listenWatcher{buf: []byte{}, addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting memexplored: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*server]struct{})
	}
	children.set[s] = struct{}{}
	children.Unlock()

	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	select {
	case addr := <-w.addr:
		s.base = "http://" + addr
	case <-ctx.Done():
		s.stop()
		return nil, 0, fmt.Errorf("memexplored did not report its address: %w", ctx.Err())
	}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(begin), nil
			}
		}
		select {
		case <-ctx.Done():
			s.stop()
			return nil, 0, fmt.Errorf("memexplored at %s never became healthy: %w", s.base, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop terminates the server gracefully (SIGTERM drains it), kills it
// if it has not exited within five seconds, and waits for it.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() {
			_ = s.cmd.Wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-exited
		}
		children.Lock()
		delete(children.set, s)
		children.Unlock()
	})
}

// stopAllChildren stops every server still running.
func stopAllChildren() {
	children.Lock()
	var all []*server
	for s := range children.set {
		all = append(all, s)
	}
	children.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// vars is a flattened /debug/vars page: every numeric leaf under its
// dotted path ("memexplored.cache_hits", "memstats.NumGC",
// "memexplored.trace_chunk_stall_ms.count"). Arrays are skipped.
type vars map[string]float64

// readVars fetches and flattens a server's expvar page.
func readVars(client *http.Client, base string) (vars, error) {
	resp, err := client.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/debug/vars: %s", base, resp.Status)
	}
	var page map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&page); err != nil {
		return nil, fmt.Errorf("decoding %s/debug/vars: %w", base, err)
	}
	out := vars{}
	flattenVars(out, "", page)
	return out, nil
}

func flattenVars(out vars, prefix string, v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			name := k
			if prefix != "" {
				name = prefix + "." + k
			}
			flattenVars(out, name, child)
		}
	case json.Number:
		if f, err := v.Float64(); err == nil {
			out[prefix] = f
		}
	}
}

// delta is after − before for every counter present in both pages.
func (after vars) delta(before vars) vars {
	d := vars{}
	for k, v := range after {
		if b, ok := before[k]; ok {
			d[k] = v - b
		}
	}
	return d
}

// sumVars adds the deltas of several servers (trace-exact-http's two
// replicas) key by key.
func sumVars(vs ...vars) vars {
	out := vars{}
	for _, v := range vs {
		for k, x := range v {
			out[k] += x
		}
	}
	return out
}
