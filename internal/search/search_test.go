package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"memexplore/internal/core"
	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

func searchOpts(seed uint64) Options {
	return Options{Seed: seed, PopSize: 12}
}

// TestKernelDeterministicAcrossWorkers is the acceptance criterion: the
// same seed, budget, and workload must give byte-identical results at any
// inner worker count.
func TestKernelDeterministicAcrossWorkers(t *testing.T) {
	n := kernels.Compress()
	opts := testOptions()
	budget := Budget{MaxGenerations: 4}
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		opts.Workers = workers
		res, err := Kernel(context.Background(), n, opts, searchOpts(42), budget)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d result differs:\n  %s\nvs\n  %s", workers, got, want)
		}
	}
	// And re-running with the same seed replays the identical run.
	opts.Workers = 2
	res, err := Kernel(context.Background(), n, opts, searchOpts(42), budget)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatal("re-run with identical seed diverged")
	}
}

func TestKernelSeedChangesRun(t *testing.T) {
	n := kernels.Compress()
	a, err := Kernel(context.Background(), n, testOptions(), searchOpts(1), Budget{MaxGenerations: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Kernel(context.Background(), n, testOptions(), searchOpts(2), Budget{MaxGenerations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The archives may coincide on a tiny space, but the evaluation
	// trajectories should not be identical in both count and memo hits.
	if a.Evaluations == b.Evaluations && a.MemoHits == b.MemoHits && a.Generations == b.Generations {
		am, _ := json.Marshal(a.Archive)
		bm, _ := json.Marshal(b.Archive)
		if bytes.Equal(am, bm) && a.Evaluations == b.Evaluations {
			t.Log("seeds 1 and 2 happened to coincide; not failing, but suspicious")
		}
	}
}

func TestBudgetStopReasons(t *testing.T) {
	n := kernels.Compress()

	res, err := Kernel(context.Background(), n, testOptions(), searchOpts(3), Budget{MaxGenerations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 3 || res.Stopped != StopMaxGenerations {
		t.Errorf("generations bound: got %d generations, stopped=%q", res.Generations, res.Stopped)
	}

	res, err = Kernel(context.Background(), n, testOptions(), searchOpts(3), Budget{MaxEvaluations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopMaxEvaluations && res.Stopped != StopSpaceExhausted {
		t.Errorf("evaluations bound: stopped=%q", res.Stopped)
	}
	if res.Evaluations < 30 && res.Stopped == StopMaxEvaluations {
		t.Errorf("stopped on evaluations with only %d < 30", res.Evaluations)
	}

	// A space small enough to exhaust.
	tiny := core.Options{
		CacheSizes: []int{32, 64},
		LineSizes:  []int{4, 8},
		Assocs:     []int{1, 2},
		Tilings:    []int{1, 2},
	}
	res, err = Kernel(context.Background(), n, tiny, searchOpts(3), Budget{MaxGenerations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopSpaceExhausted {
		t.Fatalf("tiny space: stopped=%q, want %q", res.Stopped, StopSpaceExhausted)
	}
	if res.Evaluations != res.SpacePoints {
		t.Errorf("exhausted space evaluated %d of %d points", res.Evaluations, res.SpacePoints)
	}
	// An exhausted search's archive IS the exhaustive frontier.
	exhaustive, err := core.Explore(n, tiny.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	want := core.ParetoFrontier(exhaustive)
	if len(res.Archive) != len(want) {
		t.Fatalf("archive has %d points, exhaustive frontier %d", len(res.Archive), len(want))
	}
	for i := range want {
		if res.Archive[i] != want[i] {
			t.Errorf("archive[%d] = %+v, want %+v", i, res.Archive[i], want[i])
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	n := kernels.Compress()
	var ie *InvalidError

	_, err := Kernel(context.Background(), n, testOptions(), searchOpts(0), Budget{})
	if !errors.As(err, &ie) || ie.Field != "budget" {
		t.Errorf("empty budget: err = %v, want InvalidError{budget}", err)
	}

	_, err = Kernel(context.Background(), n, testOptions(), searchOpts(0), Budget{MaxEvaluations: -1})
	if !errors.As(err, &ie) || ie.Field != "budget" {
		t.Errorf("negative budget: err = %v, want InvalidError{budget}", err)
	}

	_, err = Kernel(context.Background(), n, testOptions(), Options{PopSize: 1}, Budget{MaxGenerations: 1})
	if !errors.As(err, &ie) || ie.Field != "search.pop_size" {
		t.Errorf("pop size 1: err = %v, want InvalidError{search.pop_size}", err)
	}

	_, err = Kernel(context.Background(), n, testOptions(), Options{PopSize: 2, MutationRate: 1.5}, Budget{MaxGenerations: 1})
	if !errors.As(err, &ie) || ie.Field != "search.mutation_rate" {
		t.Errorf("mutation rate 1.5: err = %v, want InvalidError{search.mutation_rate}", err)
	}

	bad := core.Options{CacheSizes: []int{16}, LineSizes: []int{32}, Assocs: []int{1}, Tilings: []int{1}}
	if _, err := Kernel(context.Background(), n, bad, searchOpts(0), Budget{MaxGenerations: 1}); err == nil {
		t.Error("empty space accepted")
	}
}

func TestKernelCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Kernel(ctx, kernels.Compress(), testOptions(), searchOpts(0), Budget{MaxGenerations: 2})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestTraceSearchMatchesKernel runs the trace-backed search over an
// exported kernel trace and checks it agrees with the kernel search on
// the same pinned (tiling 1, no layout) space.
func TestTraceSearchMatchesKernel(t *testing.T) {
	n := kernels.Compress()
	tiled, err := loopir.TileAll(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		t.Fatal(err)
	}
	var din bytes.Buffer
	if _, err := extrace.WriteDin(&din, tr.Reader()); err != nil {
		t.Fatal(err)
	}

	opts := testOptions()
	budget := Budget{MaxGenerations: 3}
	res, st, err := Trace(context.Background(), bytes.NewReader(din.Bytes()), opts, extrace.Options{}, searchOpts(9), budget)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != int64(tr.Len()) {
		t.Errorf("ingested %d records, trace has %d", st.Records, tr.Len())
	}

	kopts := opts
	kopts.Tilings = []int{1}
	kopts.OptimizeLayout = false
	want, err := Kernel(context.Background(), n, kopts, searchOpts(9), budget)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	wantB, _ := json.Marshal(want)
	if !bytes.Equal(got, wantB) {
		t.Fatalf("trace search differs from kernel search:\n  trace : %s\n  kernel: %s", got, wantB)
	}
}

// TestSearchBeatsRandomSampling is the acceptance property: on a space of
// at least 10k points, the evolved archive dominates pure random sampling
// at equal evaluation budget — its hypervolume is no smaller, and no
// randomly sampled point dominates any archive point.
func TestSearchBeatsRandomSampling(t *testing.T) {
	n := kernels.Compress()
	opts := core.Options{
		CacheSizes: []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
			16384, 32768, 65536, 131072, 262144},
		LineSizes: []int{4, 8, 16, 32, 64, 128, 256},
		Assocs:    []int{1, 2, 4, 8},
		Tilings: func() []int {
			var b []int
			for i := 1; i <= 64; i++ {
				b = append(b, i)
			}
			return b
		}(),
		OptimizeLayout: false,
	}
	space, err := NewSpace(opts)
	if err != nil {
		t.Fatal(err)
	}
	if space.Points() < 10000 {
		t.Fatalf("space has %d points, the property needs ≥ 10000", space.Points())
	}

	budget := Budget{MaxEvaluations: 1500}
	res, err := Kernel(context.Background(), n, opts, Options{Seed: 17, PopSize: 16}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations >= space.Points() {
		t.Fatalf("search exhausted the space (%d evaluations); the comparison needs a partial sweep", res.Evaluations)
	}

	// Ground truth: the exhaustive sweep, from which random sampling draws
	// without replacement at the search's actual evaluation count.
	all, err := core.Explore(n, opts.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != space.Points() {
		t.Fatalf("exhaustive sweep has %d points, space %d", len(all), space.Points())
	}
	r := newRNG(99)
	perm := make([]int, len(all))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	random := make([]core.Metrics, res.Evaluations)
	for i := range random {
		random[i] = all[perm[i]]
	}

	// Shared reference point: strictly beyond every point either strategy saw.
	refC, refE := 0.0, 0.0
	for _, m := range append(append([]core.Metrics(nil), res.Archive...), random...) {
		if m.Cycles > refC {
			refC = m.Cycles
		}
		if m.EnergyNJ > refE {
			refE = m.EnergyNJ
		}
	}
	refC, refE = refC*1.01+1, refE*1.01+1

	hvSearch := Hypervolume(res.Archive, refC, refE)
	hvRandom := Hypervolume(random, refC, refE)
	if hvSearch < hvRandom {
		t.Errorf("search hypervolume %.6g < random %.6g at %d evaluations",
			hvSearch, hvRandom, res.Evaluations)
	}
	for _, rm := range random {
		for _, am := range res.Archive {
			if core.Dominates(rm, am) {
				t.Errorf("random point %+v dominates archive point %+v", rm, am)
			}
		}
	}
	t.Logf("space=%d evals=%d gens=%d memoHits=%d hv(search)=%.6g hv(random)=%.6g archive=%d",
		space.Points(), res.Evaluations, res.Generations, res.MemoHits,
		hvSearch, hvRandom, len(res.Archive))
}

func TestOptionsNormalizeValidate(t *testing.T) {
	o := Options{}.Normalize()
	d := DefaultOptions()
	if o != d {
		t.Errorf("Normalize(zero) = %+v, want %+v", o, d)
	}
	if err := o.Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	o = Options{Seed: 7, PopSize: 8, CrossoverRate: 0.5, MutationRate: 0.1}
	if got := o.Normalize(); got != o {
		t.Errorf("Normalize clobbered explicit fields: %+v", got)
	}
}
