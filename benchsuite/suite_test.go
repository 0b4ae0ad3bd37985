package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmokeSuite runs all three workloads end to end on tiny inputs —
// real binaries, loopback HTTP, the CLI, the oracle — and requires every
// one to be correct.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the system under test")
	}
	begin := time.Now()
	out := filepath.Join(t.TempDir(), "results.json")
	ok, err := runAll(context.Background(), workloads, 7, 300*time.Millisecond, false, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a smoke workload was not correct")
	}
	recs, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(workloads) {
		t.Fatalf("got %d result records, want %d", len(recs), len(workloads))
	}
	for _, r := range recs {
		for _, name := range []string{"setup_s", "req_per_s", "latency_p50_ms", "latency_p90_ms", "records_per_s", "peak_rss_mb"} {
			if m, ok := r.Metrics[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive measurement", r.Workload, name, m)
			}
		}
	}
	t.Logf("%d smoke workloads in %s", len(workloads), time.Since(begin).Round(time.Millisecond))
}

// TestSmokeLayers runs every workload's traced replay briefly and
// requires every per-layer metric.
func TestSmokeLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload")
	}
	ok, err := runAll(context.Background(), workloads, 7, 0, true, true, "")
	if err != nil || !ok {
		t.Fatalf("traced smoke run: ok=%v err=%v", ok, err)
	}
}

func TestPercentileTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	if v, ok := percentile(seq(100), 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (ok=%v), want 90 with ten samples beyond", v, ok)
	}
	if v, ok := percentile(seq(99), 0.9); v != 90 || ok {
		t.Errorf("p90 of 1..99 = %v (ok=%v), want 90 reported insufficient (nine beyond)", v, ok)
	}
	if v, ok := percentile(seq(3), 0.5); v != 2 || !ok {
		t.Errorf("p50 of 1..3 = %v (ok=%v), want 2; a median is never insufficient", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as measured")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 7.7, 4.4, 2.0}, 1.6, 6.05},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestVarsDelta reads two expvar pages and checks the flattened delta,
// nested histogram buckets included.
func TestVarsDelta(t *testing.T) {
	pages := []string{
		`{"cmdline":["memexplored"],"memexplored":{"cache_hits":3,"cache_misses":10,"trace_chunk_stall_ms":{"count":4,"buckets":{"le_0.01":4,"le_inf":0}}},"memstats":{"NumGC":7,"PauseNs":[1,2]}}`,
		`{"cmdline":["memexplored"],"memexplored":{"cache_hits":5,"cache_misses":16,"trace_chunk_stall_ms":{"count":7,"buckets":{"le_0.01":5,"le_inf":2}}},"memstats":{"NumGC":9,"PauseNs":[1,2,3]}}`,
	}
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/vars" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, pages[n.Add(1)-1])
	}))
	defer ts.Close()
	before, err := readVars(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	after, err := readVars(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	want := vars{
		"memexplored.cache_hits":                           2,
		"memexplored.cache_misses":                         6,
		"memexplored.trace_chunk_stall_ms.count":           3,
		"memexplored.trace_chunk_stall_ms.buckets.le_0.01": 1,
		"memexplored.trace_chunk_stall_ms.buckets.le_inf":  2,
		"memstats.NumGC":                                   2,
	}
	if len(d) != len(want) {
		t.Errorf("delta has %d counters, want %d: %v", len(d), len(want), d)
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("delta[%s] = %v, want %v", k, d[k], v)
		}
	}
	c := serviceCounters(d, 2)
	if got := c["service.cache_hit_frac"]; got != 0.25 {
		t.Errorf("cache_hit_frac = %v, want 2/8", got)
	}
	if got := c["core.chunk_stall_ms_per_op_max"]; math.Abs(got-0.015) > 1e-12 {
		t.Errorf("chunk stall bound = %v, want overflow counted at the last finite bucket", got)
	}
}

// TestSameSeedSameInputs: a seed reproduces every request body, trace
// body and artifact byte for byte, and another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	render := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, o := range exploreDeck(seed, "explore", 0, smokeScale, 0) {
			buf.Write(o.body)
		}
		for _, o := range traceDeck(seed, "trace", 0, 5000, 0) {
			buf.Write(traceBody(seed, "trace", o, 5000))
		}
		for _, o := range cliDeck(seed, "cli", 0, [2]int{1, 1}, 0) {
			fmt.Fprintf(&buf, "%d/%d;", o.artifact, o.sampleSeed)
		}
		for a := range artifactNames {
			if err := encodeTrace(&buf, artifactSource(seed, a, 20000), "din"); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a, b, c := render(3), render(3), render(4)
	if !bytes.Equal(a, b) {
		t.Error("the same seed rendered different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds rendered identical inputs")
	}
}

// TestExploreDeckShape: a deck holds every combination once, an eighth
// as jobs, one repeat per four sync explores placed after its target,
// and distinct first-time bodies.
func TestExploreDeckShape(t *testing.T) {
	deck := exploreDeck(1, "explore", 0, fullScale, 100)
	kinds := map[opKind]int{}
	seen := map[string]bool{}
	pos := map[*op]int{}
	for i, o := range deck {
		kinds[o.kind]++
		pos[o] = i
		if o.id != 100+i {
			t.Fatalf("op %d has id %d, want %d", i, o.id, 100+i)
		}
		if o.kind == kindRepeat {
			if p, ok := pos[o.target]; !ok || p >= i || !bytes.Equal(o.body, o.target.body) || o.target.kind != kindExplore {
				t.Errorf("repeat %d does not follow a sync explore with the same body", o.id)
			}
			continue
		}
		if seen[string(o.body)] {
			t.Errorf("op %d repeats a body outside a planned repeat", o.id)
		}
		seen[string(o.body)] = true
	}
	combos := len(fullScale.kernels) * 4
	if kinds[kindExplore]+kinds[kindJob] != combos || kinds[kindJob] != combos/8 ||
		kinds[kindAggregate] != fullScale.aggregates || kinds[kindRepeat] != kinds[kindExplore]/4 {
		t.Errorf("deck mix %v does not match the plan (%d combinations)", kinds, combos)
	}
}

// TestWarmupBodiesDisjoint: no measured explore-http body is a warm-up
// body, whose answer would still be in the result cache.
func TestWarmupBodiesDisjoint(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		warm := map[string]bool{}
		for _, o := range exploreDeck(seed, "warmup", 0, fullScale, 0) {
			warm[string(o.body)] = true
		}
		for _, o := range exploreDeck(seed, "explore", 0, fullScale, 0) {
			if warm[string(o.body)] {
				t.Fatalf("seed %d: measured op %d sends a warm-up body", seed, o.id)
			}
		}
	}
}

func TestTerminalEvent(t *testing.T) {
	stream := "id: 0\nevent: progress\ndata: {\"state\":\"running\"}\n\n" +
		"id: 1\nevent: done\ndata: {\"state\":\"done\"}\n\n"
	event, data, err := terminalEvent(strings.NewReader(stream))
	if err != nil || event != "done" || string(data) != `{"state":"done"}` {
		t.Errorf("terminalEvent = %q, %q, %v", event, data, err)
	}
	if _, _, err := terminalEvent(strings.NewReader("event: progress\ndata: {}\n\n")); err == nil {
		t.Error("a stream without a terminal event was accepted")
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	pair := func(nw []float64) [][2]float64 {
		out := make([][2]float64, len(base))
		for i := range base {
			out[i] = [2]float64{base[i], nw[i]}
		}
		return out
	}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 80, 120}
	for _, tc := range []struct {
		name string
		nw   []float64
		want string
	}{
		{"faster", scale(0.8), "improved"},
		{"slower", scale(1.2), "worse"},
		{"same", scale(1.0), "no worse"},
		{"noisy", noisy, "unresolved"},
	} {
		if got, _ := verdict(base, tc.nw, pair(tc.nw), "lower", &bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	stopAllChildren()
	os.Exit(code)
}
