package stackdist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"memexplore/internal/cachesim"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

func TestComputePerSetArgs(t *testing.T) {
	tr := trace.Sequential(0, 4, 1)
	if _, err := ComputePerSet(tr, 3, 4); err == nil {
		t.Error("non-power-of-two line should fail")
	}
	if _, err := ComputePerSet(tr, 4, 3); err == nil {
		t.Error("non-power-of-two sets should fail")
	}
	if _, err := ComputePerSet(tr, 4, 0); err == nil {
		t.Error("zero sets should fail")
	}
}

// The headline property: one per-set pass predicts the exact miss count of
// every associativity, matching the simulator for A ∈ {1, 2, 4, 8}.
func TestPerSetMatchesSimulatorAllAssociativities(t *testing.T) {
	for _, n := range kernels.PaperBenchmarks() {
		tr, err := n.Generate(loopir.SequentialLayout(n, 0))
		if err != nil {
			t.Fatal(err)
		}
		const line, sets = 8, 8
		h, err := ComputePerSet(tr, line, sets)
		if err != nil {
			t.Fatal(err)
		}
		for _, assoc := range []int{1, 2, 4, 8} {
			cfg := cachesim.DefaultConfig(line*sets*assoc, line, assoc)
			st, err := cachesim.RunTrace(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := h.Misses(assoc), st.Misses; got != want {
				t.Errorf("%s A=%d: per-set predicts %d misses, simulator %d",
					n.Name, assoc, got, want)
			}
		}
	}
}

func TestPerSetAccounting(t *testing.T) {
	tr := trace.PingPong(0, 64, 10) // same set of an 8-set/8B mapping
	h, err := ComputePerSet(tr, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cold != 2 || h.Total != 20 {
		t.Errorf("cold=%d total=%d", h.Cold, h.Total)
	}
	// All non-cold accesses are at within-set distance 1.
	if h.Counts[1] != 18 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Misses(1) != 20 {
		t.Errorf("direct-mapped misses = %d, want 20", h.Misses(1))
	}
	if h.Misses(2) != 2 {
		t.Errorf("2-way misses = %d, want 2", h.Misses(2))
	}
	if h.Misses(0) != h.Total {
		t.Error("assoc 0 should miss everything")
	}
	if got := h.MissRate(2); got != 0.1 {
		t.Errorf("MissRate(2) = %v", got)
	}
	curve := h.AssocCurve([]int{1, 2, 4})
	if curve[0] != 1 || curve[1] != 0.1 || curve[2] != 0.1 {
		t.Errorf("curve = %v", curve)
	}
}

// TestPerSetWritebacksMatchSimulator checks the dirty-depth derivation:
// one per-set pass over a read/write trace predicts the exact write-back
// count of every write-back, write-allocate LRU associativity.
func TestPerSetWritebacksMatchSimulator(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.New(600)
		for i := 0; i < 600; i++ {
			kind := trace.Read
			if rng.Intn(3) == 0 {
				kind = trace.Write
			}
			// 4-aligned 4-byte references never span an 8-byte line, so the
			// per-reference profile and the simulator see the same touches.
			tr.Append(trace.Ref{Addr: uint64(rng.Intn(128)) * 4, Kind: kind, Size: 4})
		}
		const line, sets = 8, 4
		h, err := ComputePerSet(tr, line, sets)
		if err != nil {
			t.Fatal(err)
		}
		for _, assoc := range []int{1, 2, 4, 8} {
			cfg := cachesim.DefaultConfig(line*sets*assoc, line, assoc)
			st, err := cachesim.RunTraceFast(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := h.Writebacks(assoc), st.WriteBacks; got != want {
				t.Errorf("seed %d A=%d: per-set predicts %d write-backs, simulator %d",
					seed, assoc, got, want)
			}
			if got, want := h.Misses(assoc), st.Misses; got != want {
				t.Errorf("seed %d A=%d: per-set predicts %d misses, simulator %d",
					seed, assoc, got, want)
			}
		}
	}
}

func TestPerSetEmpty(t *testing.T) {
	h, err := ComputePerSet(trace.New(0), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.MissRate(4) != 0 {
		t.Error("empty trace should report 0")
	}
}

// Property: per-set misses are non-increasing in associativity (LRU
// inclusion), and agree with the simulator on random traces.
func TestQuickPerSetInclusionAndExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Random(rng, 0, 1024, 400)
		h, err := ComputePerSet(tr, 8, 4)
		if err != nil {
			return false
		}
		prev := h.Misses(1)
		for _, a := range []int{2, 4, 8} {
			m := h.Misses(a)
			if m > prev {
				return false
			}
			prev = m
		}
		cfg := cachesim.DefaultConfig(8*4*2, 8, 2)
		st, err := cachesim.RunTrace(cfg, tr)
		if err != nil {
			return false
		}
		return h.Misses(2) == st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bruteLRU is an independent per-set LRU model: one list per set, most
// recent line first, with a dirty bit per line. bound 0 keeps every line
// (stack distances); bound A models an A-way write-back, write-allocate
// cache and counts the dirty lines it evicts.
type bruteLRU struct {
	bound      int
	sets       [][]bruteLine
	writebacks uint64
}

type bruteLine struct {
	tag   uint64
	dirty bool
}

// touch returns the line's depth in its set's list before the touch, or
// -1 when the list did not hold it.
func (m *bruteLRU) touch(line uint64, write bool) int {
	set := &m.sets[line%uint64(len(m.sets))]
	d := -1
	for i, l := range *set {
		if l.tag == line {
			d = i
			break
		}
	}
	e := bruteLine{tag: line, dirty: write}
	if d >= 0 {
		e.dirty = e.dirty || (*set)[d].dirty
		*set = append((*set)[:d], (*set)[d+1:]...)
	}
	*set = append([]bruteLine{e}, *set...)
	if m.bound > 0 && len(*set) > m.bound {
		if (*set)[m.bound].dirty {
			m.writebacks++
		}
		*set = (*set)[:m.bound]
	}
	return d
}

// TestComputePerSetMatchesBruteForce checks ComputePerSet against the
// brute-force per-set LRU lists above, which share nothing with the
// simulator's stack core: the distance histogram, Cold and Total, and the
// write-back counts of small associativities and of those at and past
// the deepest distance, on seeded random traces with writes.
func TestComputePerSetMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lineBytes := 1 << rng.Intn(4)
		sets := 1 << rng.Intn(4)
		span := 64 + rng.Intn(512)
		tr := trace.New(800)
		for i := 0; i < 800; i++ {
			kind := trace.Read
			if rng.Intn(3) == 0 {
				kind = trace.Write
			}
			tr.Append(trace.Ref{Addr: uint64(rng.Intn(span)), Kind: kind})
		}
		h, err := ComputePerSet(tr, lineBytes, sets)
		if err != nil {
			t.Fatal(err)
		}
		stack := &bruteLRU{sets: make([][]bruteLine, sets)}
		var counts []uint64
		var cold uint64
		for _, r := range tr.Refs() {
			d := stack.touch(r.Addr/uint64(lineBytes), r.Kind == trace.Write)
			if d < 0 {
				cold++
				continue
			}
			for len(counts) <= d {
				counts = append(counts, 0)
			}
			counts[d]++
		}
		if !slices.Equal(h.Counts, counts) || h.Cold != cold || h.Total != uint64(tr.Len()) {
			t.Fatalf("seed %d (L%d, %d sets): histogram %v cold %d total %d, brute force %v cold %d total %d",
				seed, lineBytes, sets, h.Counts, h.Cold, h.Total, counts, cold, tr.Len())
		}
		assocs := []int{1, 2, 3, 4, 6, 8, len(counts), len(counts) + 1, len(counts) + 2}
		for _, assoc := range assocs {
			cache := &bruteLRU{bound: assoc, sets: make([][]bruteLine, sets)}
			for _, r := range tr.Refs() {
				cache.touch(r.Addr/uint64(lineBytes), r.Kind == trace.Write)
			}
			if got := h.Writebacks(assoc); got != cache.writebacks {
				t.Errorf("seed %d (L%d, %d sets) A=%d: %d write-backs, brute force %d",
					seed, lineBytes, sets, assoc, got, cache.writebacks)
			}
		}
	}
}
