package cachesim

import (
	"math/rand"
	"reflect"
	"testing"

	"memexplore/internal/trace"
)

// feedRagged feeds refs to access in blocks of 1 to ragged references.
func feedRagged(access func([]trace.Ref), refs []trace.Ref, ragged int) {
	for start := 0; start < len(refs); {
		end := min(start+1+start%max(ragged, 1), len(refs))
		access(refs[start:end])
		start = end
	}
}

// sweepRanges drives refs through a sweep of cfgs cut into ranges at
// cuts: range 0 on the sweep itself, later ranges on two forks taken in
// turn, each fork absorbed in stream order just before it is reused
// (the round-robin shape of core's range executor), in ragged blocks.
func sweepRanges(t *testing.T, cfgs []Config, refs []trace.Ref, cuts []int, ragged int) []Stats {
	t.Helper()
	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(refs))
	for i := 1; i < len(bounds); i++ { // insertion sort: at most 9 bounds
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	feedRagged(s.AccessBlock, refs[bounds[0]:bounds[1]], ragged)
	var forks [2]*Sweep
	var pending []*Sweep
	for i := 2; i < len(bounds); i++ {
		slot := &forks[i%2]
		if *slot == nil {
			if *slot = s.Fork(); *slot == nil {
				t.Fatalf("sweep of %d configs does not fork", len(cfgs))
			}
		} else {
			s.Absorb(pending[0])
			pending = pending[1:]
		}
		feedRagged((*slot).AccessBlock, refs[bounds[i-1]:bounds[i]], ragged)
		pending = append(pending, *slot)
	}
	for _, f := range pending {
		s.Absorb(f)
	}
	return s.Stats()
}

// rangeTrace is a random stream over a small hot region and a far
// page: 40% writes, sizes 0–16 bytes so some references span lines.
func rangeTrace(rng *rand.Rand, n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		addr := uint64(rng.Intn(1024))
		if rng.Intn(8) == 0 {
			addr = 1<<16 + uint64(rng.Intn(1<<14))
		}
		kind := trace.Read
		switch r := rng.Intn(10); {
		case r < 4:
			kind = trace.Write
		case r == 4:
			kind = trace.Fetch
		}
		refs[i] = trace.Ref{Addr: addr, Kind: kind, Size: uint8(rng.Intn(17))}
	}
	return refs
}

// TestRangesMatchSequentialSweep is the field-for-field stitch check:
// random traces over the 103-configuration trace space, write-back and
// write-through mixed, each cut at 0–7 random points, must give the
// sequential sweep's Stats exactly.
func TestRangesMatchSequentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		cfgs := traceSpaceConfigs()
		for i := range cfgs {
			cfgs[i].WriteBack = rng.Intn(2) == 0
		}
		refs := rangeTrace(rng, 1+rng.Intn(5000))
		want, err := NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		feedRagged(want.AccessBlock, refs, 64)
		wantStats := want.Stats()
		want.Release()
		for cut := 0; cut < 3; cut++ {
			cuts := make([]int, rng.Intn(8))
			for i := range cuts {
				cuts[i] = rng.Intn(len(refs) + 1)
			}
			got := sweepRanges(t, cfgs, refs, cuts, 1+rng.Intn(300))
			for i := range got {
				if !reflect.DeepEqual(got[i], wantStats[i]) {
					t.Fatalf("trial %d (%d refs) cuts %v %v:\n ranges     %+v\n sequential %+v",
						trial, len(refs), cuts, cfgs[i], got[i], wantStats[i])
				}
			}
		}
	}
}

// TestForkRefusesFallbackSweeps: a sweep with a fallback cache cannot
// be stitched, so it does not fork.
func TestForkRefusesFallbackSweeps(t *testing.T) {
	fifo := DefaultConfig(64, 8, 2)
	fifo.Replacement = FIFO
	mixed, err := NewSweep([]Config{DefaultConfig(64, 8, 2), fifo})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Forkable() || mixed.Fork() != nil {
		t.Error("a sweep with a fallback cache forked")
	}
	stack, err := NewSweep([]Config{DefaultConfig(64, 8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !stack.Forkable() || stack.Fork() == nil {
		t.Error("an all-level sweep does not fork")
	}
}
