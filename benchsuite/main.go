// Command benchsuite is memexplore's benchmark: three named, seeded
// workloads driven end to end against the real memexplored and
// memexplore binaries, a correctness oracle, a traced in-process layer
// replay, and a comparator for result files. See README.md for every
// metric, workload and bound.
//
// Usage, from the repository root:
//
//	bash benchsuite/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-out FILE]
//	bash benchsuite/run.sh -compare BASE.json NEW.json
//
// Without -workload all three workloads run in turn. -trace 1 runs the
// per-layer replay instead of the end-to-end run. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics of the (last) workload run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all three)")
		seed    = flag.Int64("seed", 1, "workload seed: every schedule, trace body and artifact derives from it")
		seconds = flag.Float64("seconds", 30, "timed window per workload in seconds (runs finish the deck in progress)")
		traced  = flag.Int("trace", 0, "1 runs the traced in-process layer replay (per-layer metrics) instead of the end-to-end run")
		smoke   = flag.Bool("smoke", false, "tiny inputs and at most a one-second window: every workload in seconds")
		out     = flag.String("out", "", "append each workload's result record to this file (one JSON object per line)")
		compare = flag.Bool("compare", false, "compare two result files: -compare BASE.json NEW.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files: BASE.json NEW.json"))
		}
		root, err := findRoot()
		if err != nil {
			fatal(err)
		}
		if err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	sel := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		sel = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := runAll(ctx, sel, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *smoke, *out)
	stopAllChildren()
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	stopAllChildren()
	fmt.Fprintln(os.Stderr, "benchsuite:", err)
	os.Exit(1)
}

// findRoot locates the repository checkout: the working directory when
// it holds benchsuite/, its parent when run from inside benchsuite/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "benchsuite", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root (no benchsuite/go.mod under %s)", wd)
}

// runAll runs the selected workloads and reports whether every one was
// correct.
func runAll(ctx context.Context, sel []workload, seed int64, length time.Duration, traced, smoke bool, out string) (bool, error) {
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return false, err
	}
	if !traced {
		if err := buildBinaries(root, bin); err != nil {
			return false, err
		}
	}
	sc := fullScale
	if smoke {
		sc, length = smokeScale, min(length, time.Second)
	}
	allOK := true
	for _, w := range sel {
		work, err := os.MkdirTemp(build, "work-")
		if err != nil {
			return false, err
		}
		r := &runEnv{root: root, work: work, bin: bin, seed: seed, window: length, sc: sc}
		rec, err := runOne(ctx, w, r, traced)
		os.RemoveAll(work)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.print(os.Stdout)
		if out != "" {
			if err := rec.append(out); err != nil {
				return false, err
			}
		}
		allOK = allOK && rec.Correct
	}
	return allOK, nil
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Insufficient marks a tail percentile with fewer than ten samples
	// beyond it.
	Insufficient bool `json:"insufficient,omitempty"`
}

// record is one workload run's result, as written to -out files.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Spans     string             `json:"spans,omitempty"` // the traced run's span file
}

// env records what produced the numbers.
type env struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadBefore string  `json:"loadavg_before"`
	LoadAfter  string  `json:"loadavg_after"`
	WindowS    float64 `json:"window_s"`
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// runOne runs one workload, end to end or traced, into a record.
func runOne(ctx context.Context, w workload, r *runEnv, traced bool) (*record, error) {
	rec := &record{Workload: w.name, Seed: r.seed, Env: env{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadBefore: loadavg(), WindowS: r.window.Seconds(),
	}}
	if traced {
		rec.Trace = 1
		if err := layerRecord(ctx, w, r, rec); err != nil {
			return nil, err
		}
	} else {
		m, err := w.run(ctx, r)
		if err != nil {
			return nil, err
		}
		endToEndRecord(m, rec)
	}
	rec.Env.LoadAfter = loadavg()
	// JSON has no NaN or infinity; they arise only when no operation
	// succeeded, and such a run already reports failures.
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			rec.Metrics[name] = m
		}
	}
	for name, v := range rec.Counters {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(rec.Counters, name)
		}
	}
	return rec, nil
}

// endToEndRecord turns a measurement into the end-to-end metrics.
func endToEndRecord(m *measurement, rec *record) {
	var lat []float64
	var records int64
	var busy time.Duration
	for _, o := range m.win.outcomes {
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.latency))
		records += o.op.records
		busy += o.latency
	}
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	p50, _ := percentile(lat, 0.5)
	p90, enough := percentile(lat, 0.9)
	rec.Attempted = len(m.win.outcomes)
	rec.Failed = len(m.failures)
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rec.Metrics = map[string]metric{
		"setup_s":        {Value: median(setups), Unit: "s", Samples: len(setups)},
		"req_per_s":      {Value: float64(len(lat)) / m.win.busy.Seconds(), Unit: "1/s", Samples: len(lat)},
		"latency_p50_ms": {Value: p50, Unit: "ms", Samples: len(lat)},
		"latency_p90_ms": {Value: p90, Unit: "ms", Samples: len(lat), Insufficient: !enough},
		"records_per_s":  {Value: float64(records) / busy.Seconds(), Unit: "records/s", Samples: len(lat)},
		"peak_rss_mb":    {Value: m.rssMB, Unit: "MB", Samples: 1},
	}
	rec.Counters = m.counters
	byClass := make(map[string][]float64)
	for _, o := range m.win.outcomes {
		if o.err == nil {
			byClass[o.op.class()] = append(byClass[o.op.class()], ms(o.latency))
		}
	}
	for class, lat := range byClass {
		rec.Counters["latency_p50_ms."+class] = median(lat)
	}
	if len(m.failures) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d operations failed:\n%s\n", rec.Workload, len(m.failures), firstLines(m.failures, 10))
	}
}

// print writes the human table, then the one-line JSON result (the
// last line of standard output).
func (rec *record) print(w *os.File) {
	mode := "end to end"
	if rec.Trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (seed %d, %s): %d ops, %d failed; %s, nproc %d, GOMAXPROCS %d, load %s -> %s\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed,
		rec.Env.GoVersion, rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.LoadBefore, rec.Env.LoadAfter)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		note := ""
		if m.Insufficient {
			note = "  (insufficient: fewer than 10 samples beyond)"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-10s n=%d%s\n", name, m.Value, m.Unit, m.Samples, note)
	}
	for _, name := range sortedKeys(rec.Counters) {
		fmt.Fprintf(w, "  counter %-26s %14.6g\n", name, rec.Counters[name])
	}
	if rec.Spans != "" {
		fmt.Fprintf(w, "  spans: %s\n", rec.Spans)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	fmt.Fprintln(w, string(mustJSON(line)))
}

// append adds the record to a result file, one JSON object per line.
func (rec *record) append(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(mustJSON(rec), '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
