package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
)

// TestSampleRateOneIsExact: a sampling rate of exactly 1 (and 0) takes
// the exact path — Metrics bit-identical to an unsampled sweep, envelope
// fields absent.
func TestSampleRateOneIsExact(t *testing.T) {
	var din bytes.Buffer
	if _, err := extrace.WriteDin(&din, exportKernelTrace(t, kernels.MatAdd()).Reader()); err != nil {
		t.Fatal(err)
	}
	payload := din.Bytes()

	want, _, err := ExploreTrace(bytes.NewReader(payload), traceSweepOptions(), extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	one := traceSweepOptions()
	one.SampleRate = 1
	one.SampleSeed = 99 // inert without sampling; must not change anything
	got, _, err := ExploreTrace(bytes.NewReader(payload), one, extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs under SampleRate=1:\n  got : %+v\n  want: %+v", i, got[i], want[i])
		}
	}
	if want[0].SampleRate != 0 || want[0].SampledRecords != 0 || want[0].MissRateCI != 0 {
		t.Errorf("exact sweep carries a sampling envelope: %+v", want[0])
	}
}

// TestSampledSweepDeterministic: the same rate and seed give identical
// results across reruns and worker counts — the filter runs on the
// coordinator, before the fan-out.
func TestSampledSweepDeterministic(t *testing.T) {
	const records = 50_000
	opts := traceSweepOptions()
	opts.SampleRate = 0.25
	opts.SampleSeed = 7

	var base []Metrics
	for run, workers := range []int{1, 4, 1, 4} {
		o := opts
		o.Workers = workers
		ms, st, err := ExploreTrace(&dinGenerator{records: records}, o, extrace.Options{})
		if err != nil {
			t.Fatalf("run %d (workers=%d): %v", run, workers, err)
		}
		if st.Records != records {
			t.Fatalf("run %d ingested %d records", run, st.Records)
		}
		if base == nil {
			base = ms
			continue
		}
		for i := range base {
			if ms[i] != base[i] {
				t.Fatalf("run %d (workers=%d) point %d differs:\n  got : %+v\n  want: %+v",
					run, workers, i, ms[i], base[i])
			}
		}
	}

	m := base[0]
	if m.SampleRate != 0.25 {
		t.Errorf("SampleRate = %g, want 0.25", m.SampleRate)
	}
	if m.SampledRecords <= 0 || m.SampledRecords >= records {
		t.Errorf("SampledRecords = %d, want a proper subset of %d", m.SampledRecords, records)
	}
	// A degenerate miss rate (0 or 1) has zero binomial width; any point
	// with a fractional rate must carry a positive interval.
	fractional := false
	for _, pm := range base {
		if pm.MissRate > 0 && pm.MissRate < 1 {
			fractional = true
			if pm.MissRateCI <= 0 {
				t.Errorf("%s: MissRateCI = %g at miss rate %.4f, want > 0", pm.Label(), pm.MissRateCI, pm.MissRate)
			}
		}
	}
	if !fractional {
		t.Error("no sweep point had a fractional miss rate; pick a richer test space")
	}
	// The rescaled access count estimates the full stream.
	if math.Abs(float64(m.Accesses)-records) > 1 {
		t.Errorf("rescaled accesses = %d, want ≈ %d", m.Accesses, records)
	}

	// A different seed draws a different spatial sample.
	reseeded := opts
	reseeded.SampleSeed = 8
	ms, _, err := ExploreTrace(&dinGenerator{records: records}, reseeded, extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].SampledRecords == base[0].SampledRecords {
		t.Logf("seeds 7 and 8 kept the same record count (%d) — possible but unusual", ms[0].SampledRecords)
	}
}

// TestSampledSweepAccuracy: on a long strided stream the sampled miss
// rate lands near the exact one.
func TestSampledSweepAccuracy(t *testing.T) {
	const records = 200_000
	exact, _, err := ExploreTrace(&dinGenerator{records: records}, traceSweepOptions(), extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := traceSweepOptions()
	opts.SampleRate = 0.5
	sampled, _, err := ExploreTrace(&dinGenerator{records: records}, opts, extrace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		diff := math.Abs(sampled[i].MissRate - exact[i].MissRate)
		bound := math.Max(3*sampled[i].MissRateCI, 0.02)
		if diff > bound {
			t.Errorf("point %d (%s): sampled miss rate %.4f vs exact %.4f (diff %.4f > bound %.4f)",
				i, exact[i].Label(), sampled[i].MissRate, exact[i].MissRate, diff, bound)
		}
	}
}

// hotColdDin builds a din trace dominated by a small hot region, with
// rare excursions into a large cold one.
func hotColdDin(hotLoops, coldTouches int) []byte {
	var b bytes.Buffer
	cold := 0
	for l := 0; l < hotLoops; l++ {
		for a := 0; a < 512; a += 4 {
			fmt.Fprintf(&b, "0 %x\n", a)
		}
		if cold < coldTouches {
			fmt.Fprintf(&b, "0 %x\n", 1<<20+cold*64)
			cold++
		}
	}
	return b.Bytes()
}

// TestSamplingKeepsNothing: an absurdly small rate that filters out
// every record fails like an empty trace rather than scoring nothing.
func TestSamplingKeepsNothing(t *testing.T) {
	opts := traceSweepOptions()
	opts.SampleRate = 1e-300
	_, st, err := ExploreTrace(strings.NewReader("0 10\n0 14\n"), opts, extrace.Options{})
	if !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
	if st.Records != 2 {
		t.Errorf("ingest stats records = %d, want 2 (the stream itself was read)", st.Records)
	}
}

// TestKernelSweepRejectsSampling: generated-trace sweeps are exact by
// construction and refuse sampling.
func TestKernelSweepRejectsSampling(t *testing.T) {
	n := kernels.MatAdd()
	var inv *ErrInvalidOptions

	opts := traceSweepOptions()
	opts.SampleRate = 0.5
	if _, err := Explore(n, opts); !errors.As(err, &inv) || inv.Field != "sample_rate" {
		t.Errorf("Explore: err = %v, want ErrInvalidOptions{sample_rate}", err)
	}
	opts = traceSweepOptions()
	opts.SampleRate = 0.5
	if _, err := ExplorePerPointContext(t.Context(), n, opts); !errors.As(err, &inv) || inv.Field != "sample_rate" {
		t.Errorf("ExplorePerPointContext: err = %v, want ErrInvalidOptions{sample_rate}", err)
	}
}

// TestSamplingOptionsValidateNormalize pins the range checks and the
// cache-key canonicalization.
func TestSamplingOptionsValidateNormalize(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*Options)
	}{
		{"sample_rate", func(o *Options) { o.SampleRate = -0.1 }},
		{"sample_rate", func(o *Options) { o.SampleRate = 1.5 }},
		{"sample_rate", func(o *Options) { o.SampleRate = math.NaN() }},
	} {
		opts := DefaultOptions()
		tc.mut(&opts)
		var inv *ErrInvalidOptions
		if err := opts.Validate(); !errors.As(err, &inv) || inv.Field != tc.field {
			t.Errorf("Validate(%s mutation) = %v, want ErrInvalidOptions{%s}", tc.field, err, tc.field)
		}
	}

	opts := DefaultOptions()
	opts.SampleRate = 1
	opts.SampleSeed = 42
	norm := opts.Normalize()
	if norm.SampleRate != 0 || norm.SampleSeed != 0 {
		t.Errorf("Normalize(rate=1, seed=42) kept rate=%g seed=%d, want 0/0", norm.SampleRate, norm.SampleSeed)
	}
	opts = DefaultOptions()
	opts.SampleRate = 0.5
	opts.SampleSeed = 42
	norm = opts.Normalize()
	if norm.SampleRate != 0.5 || norm.SampleSeed != 42 {
		t.Errorf("Normalize dropped active sampling options: %+v", norm)
	}
}
