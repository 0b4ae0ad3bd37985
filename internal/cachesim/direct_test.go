package cachesim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"memexplore/internal/trace"
)

// TestCountDirectMappedMatchesRunTrace checks the direct-mapped counter
// against the classified simulator on a trace with writes, straddling
// references and more than 10k distinct lines: one pass at every set
// count of a line size — the guard's sequential side — and one pass per
// set count run to the end and stopped at a conflict limit — its plan
// side.
func TestCountDirectMappedMatchesRunTrace(t *testing.T) {
	ctx := context.Background()
	tr := classTrace(rand.New(rand.NewSource(3)), 40000)
	lines := map[uint64]bool{}
	for _, r := range tr.Refs() {
		lines[r.Addr>>4] = true
	}
	if len(lines) < 10000 {
		t.Fatalf("trace touches %d distinct 16-byte lines, want at least 10000", len(lines))
	}
	sets := []int{1, 2, 4, 8, 16, 64, 256, 1024}
	for _, line := range []int{1, 4, 16, 64} {
		got, complete, err := CountDirectMapped(ctx, tr, line, sets, math.MaxUint64)
		if err != nil || !complete {
			t.Fatalf("L=%d: complete %v, err %v", line, complete, err)
		}
		for j, s := range sets {
			st, err := RunTrace(DefaultConfig(s*line, line, 1), tr)
			if err != nil {
				t.Fatal(err)
			}
			want := DirectMappedCounts{Misses: st.Misses, ConflictMisses: st.ConflictMisses}
			if got[j] != want {
				t.Errorf("L=%d sets=%d: one pass counts %+v, RunTrace %+v", line, s, got[j], want)
			}
			one, complete, err := CountDirectMapped(ctx, tr, line, []int{s}, st.ConflictMisses)
			if err != nil {
				t.Fatal(err)
			}
			if !complete || one[0] != want {
				t.Errorf("L=%d sets=%d: single counter (%+v, complete %v), RunTrace %+v", line, s, one, complete, want)
			}
			if st.ConflictMisses == 0 {
				continue
			}
			stop, complete, err := CountDirectMapped(ctx, tr, line, []int{s}, st.ConflictMisses-1)
			if err != nil {
				t.Fatal(err)
			}
			if complete || stop[0].ConflictMisses != st.ConflictMisses {
				t.Errorf("L=%d sets=%d: limit %d stopped at %+v (complete %v), want a stop at %d conflicts",
					line, s, st.ConflictMisses-1, stop, complete, st.ConflictMisses)
			}
		}
	}
}

// TestCountDirectMappedSparse runs the counter over a few lines spread
// across a multi-gigabyte address range: their state is sized by the
// lines touched and the set counts, never by the address span.
func TestCountDirectMappedSparse(t *testing.T) {
	tr := trace.New(0)
	for rep := 0; rep < 4; rep++ {
		for i := uint64(0); i < 64; i++ {
			tr.Append(trace.Ref{Addr: i * (1 << 26), Kind: trace.Kind(i % 2), Size: 4})
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, _, err := CountDirectMapped(context.Background(), tr, 4, []int{4, 16, 256}, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CountDirectMapped(context.Background(), tr, 4, []int{256}, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("counter allocated %d bytes for 64 distinct lines", alloc)
	}
	for j, s := range []int{4, 16, 256} {
		st, err := RunTrace(DefaultConfig(s*4, 4, 1), tr)
		if err != nil {
			t.Fatal(err)
		}
		if want := (DirectMappedCounts{Misses: st.Misses, ConflictMisses: st.ConflictMisses}); got[j] != want {
			t.Errorf("sets=%d: %+v, RunTrace %+v", s, got[j], want)
		}
	}
}

func TestCountDirectMappedErrors(t *testing.T) {
	ctx := context.Background()
	tr := trace.Sequential(0, 64, 4)
	for _, c := range []struct {
		line int
		sets []int
	}{
		{3, []int{4}},
		{4, []int{3}},
		{4, nil},
		{4, []int{8, 4}},
		{4, []int{4, 4}},
	} {
		if _, _, err := CountDirectMapped(ctx, tr, c.line, c.sets, math.MaxUint64); err == nil {
			t.Errorf("L=%d sets=%v: want an error", c.line, c.sets)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := CountDirectMapped(canceled, tr, 4, []int{4}, math.MaxUint64); err != context.Canceled {
		t.Errorf("canceled context: err = %v, want context.Canceled", err)
	}
}

// TestShadowLevels checks the multi-capacity shadow against one
// fully associative LRU model per capacity.
func TestShadowLevels(t *testing.T) {
	caps := []int{1, 2, 5, 16, 64}
	s := newShadow3C(caps...)
	models := make([][]uint64, len(caps))
	seen := map[uint64]bool{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		la := uint64(rng.Intn(96))
		if rng.Intn(3) == 0 {
			la = uint64(rng.Intn(6))
		}
		gotSeen, level := s.touch(la)
		want := len(caps)
		for j := len(caps) - 1; j >= 0; j-- {
			var hit bool
			models[j], hit = touchLRU(models[j], la, caps[j])
			if hit {
				want = j
			}
		}
		if gotSeen != seen[la] || level != want {
			t.Fatalf("touch %d of line %d: (seen %v, level %d), want (%v, %d)", i, la, gotSeen, level, seen[la], want)
		}
		seen[la] = true
	}
}
