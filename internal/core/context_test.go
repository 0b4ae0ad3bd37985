package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memexplore/internal/kernels"
)

// countingCtx cancels itself after Err has been consulted limit times —
// a deterministic way to stop a sweep mid-flight.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func ctxOptions() Options {
	o := DefaultOptions()
	o.CacheSizes = []int{32, 64, 128}
	o.LineSizes = []int{4, 8}
	o.Assocs = []int{1, 2}
	o.Tilings = []int{1, 2}
	return o
}

func TestExploreContextCancelMidSweep(t *testing.T) {
	opts := ctxOptions()
	full, err := Explore(kernels.Compress(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 4 {
		t.Fatalf("sweep too small to test cancellation: %d points", len(full))
	}

	ctx := &countingCtx{Context: context.Background(), limit: 3}
	ms, err := ExploreContext(ctx, kernels.Compress(), opts)
	if err == nil {
		t.Fatalf("canceled sweep returned %d points and no error", len(ms))
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	// The context was consulted at most limit+1 times before the sweep
	// stopped, i.e. well before all len(full) points were evaluated.
	if got := ctx.calls.Load(); got > int64(len(full)) {
		t.Errorf("context consulted %d times, sweep did not stop early (space has %d points)", got, len(full))
	}
}

func TestExploreContextUncanceledMatchesExplore(t *testing.T) {
	opts := ctxOptions()
	want, err := Explore(kernels.Compress(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExploreContext(context.Background(), kernels.Compress(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("ExploreContext(Background) diverges from Explore")
	}
}

func TestExploreContextCancelWorkers(t *testing.T) {
	opts := DefaultOptions() // big enough that the parallel path engages
	opts.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExploreContext(ctx, kernels.Compress(), opts)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled parallel sweep: %v", err)
	}
}

func TestExploreContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := ExploreContext(ctx, kernels.Compress(), ctxOptions())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: %v", err)
	}
}

func TestAggregateContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ks := []WeightedKernel{{Nest: kernels.Compress(), Trip: 1}}
	_, _, err := AggregateContext(ctx, ks, ctxOptions())
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled aggregate: %v", err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Options)
		field string
	}{
		{"no cache sizes", func(o *Options) { o.CacheSizes = nil }, "cache_sizes"},
		{"no line sizes", func(o *Options) { o.LineSizes = nil }, "line_sizes"},
		{"no assocs", func(o *Options) { o.Assocs = nil }, "assocs"},
		{"no tilings", func(o *Options) { o.Tilings = nil }, "tilings"},
		{"bad line size", func(o *Options) { o.LineSizes = []int{3} }, "line_sizes"},
		{"bad tiling", func(o *Options) { o.Tilings = []int{0} }, "tilings"},
		{"negative victim", func(o *Options) { o.VictimLines = -1 }, "victim_lines"},
		{"bad energy", func(o *Options) { o.Energy.CellScale = -1 }, "energy"},
	}
	for _, c := range cases {
		o := DefaultOptions()
		c.mut(&o)
		err := o.Validate()
		var inv *ErrInvalidOptions
		if !errors.As(err, &inv) {
			t.Errorf("%s: error %v is not *ErrInvalidOptions", c.name, err)
			continue
		}
		if inv.Field != c.field {
			t.Errorf("%s: field = %q, want %q", c.name, inv.Field, c.field)
		}
	}
}

func TestErrUnknownKernel(t *testing.T) {
	_, err := kernels.ByName("no-such-kernel")
	if !errors.Is(err, kernels.ErrUnknownKernel) {
		t.Errorf("ByName error %v does not wrap ErrUnknownKernel", err)
	}
}

func TestNormalize(t *testing.T) {
	o := Options{
		CacheSizes: []int{128, 32, 32, 64},
		LineSizes:  []int{8, 4, 8},
		Assocs:     []int{2, 1, 2},
	}
	n := o.Normalize()
	if !reflect.DeepEqual(n.CacheSizes, []int{32, 64, 128}) {
		t.Errorf("CacheSizes = %v", n.CacheSizes)
	}
	if !reflect.DeepEqual(n.LineSizes, []int{4, 8}) {
		t.Errorf("LineSizes = %v", n.LineSizes)
	}
	if !reflect.DeepEqual(n.Assocs, []int{1, 2}) {
		t.Errorf("Assocs = %v", n.Assocs)
	}
	d := DefaultOptions()
	if !reflect.DeepEqual(n.Tilings, d.Tilings) {
		t.Errorf("empty Tilings not defaulted: %v", n.Tilings)
	}
	if n.Energy != d.Energy {
		t.Error("zero Energy not defaulted")
	}
	// Idempotent, and a normalized default equals itself.
	if !reflect.DeepEqual(n.Normalize(), n) {
		t.Error("Normalize is not idempotent")
	}
	if !reflect.DeepEqual(d.Normalize(), d) {
		t.Error("DefaultOptions is not already normal")
	}
	// Normalize must not mutate the receiver's slices.
	if o.CacheSizes[0] != 128 {
		t.Error("Normalize mutated its receiver")
	}
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	d := DefaultOptions()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", back, d)
	}
	// The wire form uses the stable snake_case names.
	for _, key := range []string{`"cache_sizes"`, `"line_sizes"`, `"assocs"`, `"tilings"`, `"optimize_layout"`, `"energy"`, `"em_nj"`} {
		if !containsBytes(b, key) {
			t.Errorf("marshaled options missing %s: %s", key, b)
		}
	}
}

func TestMetricsJSONTags(t *testing.T) {
	m := Metrics{CacheSize: 64, LineSize: 8, Assoc: 2, Tiling: 4, EnergyNJ: 1.5}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cache_size":64`, `"line_size":8`, `"assoc":2`, `"tiling":4`, `"energy_nj":1.5`, `"energy_breakdown"`} {
		if !containsBytes(b, key) {
			t.Errorf("marshaled metrics missing %s: %s", key, b)
		}
	}
	var back Metrics
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Errorf("metrics round trip: %+v != %+v", back, m)
	}
}

func containsBytes(b []byte, sub string) bool { return strings.Contains(string(b), sub) }
