package loopir_test

import (
	"math/rand"
	"slices"
	"testing"

	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
)

// randomLayout places every array of n at a random base, anywhere in the
// 64-bit address space, with natural or randomly padded strides. With
// invalid set, one array in four gets a placement Generate must reject:
// missing, a wrong stride count or overlapping strides.
func randomLayout(rng *rand.Rand, n *loopir.Nest, invalid bool) loopir.Layout {
	lay := loopir.Layout{}
	for _, a := range n.Arrays {
		pl := loopir.Placement{Base: rng.Uint64() >> uint(rng.Intn(65))}
		if rng.Intn(2) == 0 {
			pl.StrideBytes = make([]int, len(a.Dims))
			minStride := a.ElementBytes()
			for d := len(a.Dims) - 1; d >= 0; d-- {
				pl.StrideBytes[d] = minStride + rng.Intn(3)*rng.Intn(64)
				minStride = pl.StrideBytes[d] * a.Dims[d]
			}
		}
		if invalid && rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				continue
			case 1:
				pl.StrideBytes = make([]int, len(a.Dims)+1)
			default:
				pl.StrideBytes = make([]int, len(a.Dims))
			}
		}
		lay[a.Name] = pl
	}
	return lay
}

// checkGenerate requires Generate to emit exactly the checked
// evaluator's references under lay, or to fail with its error text.
func checkGenerate(t *testing.T, p *loopir.Program, lay loopir.Layout) {
	t.Helper()
	want, wantErr := p.GenerateChecked(lay)
	got, err := p.Generate(lay)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: Generate error %v, checked evaluator %v", p.Nest().Name, err, wantErr)
		}
	case !slices.Equal(got.Refs(), want.Refs()):
		t.Fatalf("%s: Generate emits %d references, checked evaluator %d, first difference at %d",
			p.Nest().Name, got.Len(), want.Len(), firstDiff(got.Refs(), want.Refs()))
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestProgramMatchesCheckedEvaluator compiles every registered kernel at
// tilings {1, 2, 4, 8, 16}, requires the interval proof to hold for each
// (so the folded generator is what runs), and compares its traces with
// the checked evaluator's under the sequential layout and random padded
// placements. -short and -race keep one tiling per kernel.
func TestProgramMatchesCheckedEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tilings := []int{1, 2, 4, 8, 16}
	for ki, n := range kernels.All() {
		bs := tilings
		if testing.Short() || raceEnabled {
			bs = tilings[ki%len(tilings) : ki%len(tilings)+1]
		}
		for _, b := range bs {
			tn, err := loopir.TileAll(n, b)
			if err != nil {
				t.Fatal(err)
			}
			p, err := tn.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if !p.Proven() {
				t.Errorf("%s: interval proof failed; it would generate through the checked evaluator", tn.Name)
			}
			checkGenerate(t, p, loopir.SequentialLayout(tn, 0))
			for range 3 {
				checkGenerate(t, p, randomLayout(rng, tn, false))
			}
		}
	}
}

// proofCases are nests at the interval proof's edges, with its verdict
// on each.
var proofCases = []struct {
	name, src string
	proven    bool
}{
	{"in range", "int8 a[8][8]\nfor i = 0, 7\nfor j = 0, 7\na[i][j], a[j][i] (w)\n", true},
	{"out of range on the last iteration", "int8 a[8]\nfor i = 0, 8\na[i]\n", false},
	{"out of range below", "int8 a[8]\nfor i = 0, 7\na[i - 1]\n", false},
	{"min caps", "int8 a[10]\nfor t = 0, 9, step 4\nfor i = t, min(t + 3, 9)\na[i]\n", true},
	{"min cap too loose", "int8 a[10]\nfor t = 0, 9, step 4\nfor i = t, min(t + 3, 10)\na[i]\n", false},
	{"steps above 1", "int16 a[9][9]\nfor i = 1, 8, step 3\nfor j = 0, 8, step 2\na[i][j], a[i - 1][8 - j] (w)\n", true},
	{"negative coefficients", "int32 a[16]\nfor i = 0, 3\nfor j = 0, 3\na[15 - 4i - j], a[-2i + 6] (w)\n", true},
	{"triangular", "int8 a[8][8]\nfor i = 0, 7\nfor j = i, 7\na[i][j], a[j][i] (w)\n", true},
	// The proof ignores that j ≥ i here, so it falls back to the
	// checked evaluator, which finds every index in range.
	{"correlated indices", "int8 a[8]\nfor i = 0, 7\nfor j = 0, i\na[i - j]\n", false},
	{"empty inner loop", "int8 a[4]\nfor i = 0, 3\nfor j = 5, 2\na[i + j]\n", true},
	{"inner loop empty on some iterations", "int8 a[4][4]\nfor i = 0, 3\nfor j = 2, i\na[i][j]\n", true},
	{"huge extent", "int8 a[9223372036854775807]\nfor i = 0, 3\na[4611686018427387904i]\n", false},
	// j's bounds wrap at i = 2; the checked evaluator's wrapping
	// arithmetic still lands every index in range.
	{"overflowing bound", "int8 a[2]\nfor i = 0, 3\nfor j = 4611686018427387904i, 4611686018427387904i + 1\na[j - 4611686018427387904i]\n", false},
	{"overflowing term", "int8 a[4]\nfor i = 0, 3\nfor j = 0, 2\na[4611686018427387904j + i]\n", false},
	// Unchecked, these wrap into [0, 4]: (2^62+1)·4 to 4, and
	// 2^63-1 + 1 to a negative upper end.
	{"term wrapping into range", "int8 a[5]\nfor j = 0, 4\na[4611686018427387905j]\n", false},
	{"sum wrapping into range", "int8 a[4]\nfor j = 0, 1\na[j + 9223372036854775807]\n", false},
	// The step past i = 2^63-1 would wrap; the walk stops at the trip
	// count instead.
	{"loop ending at the largest int", "int8 a[2]\nfor i = 9223372036854775806, 9223372036854775807\na[i - 9223372036854775806]\n", true},
	// hi - lo overflows int; the trip count, taken in uint64, is 3.
	{"trip count wrapping", "int8 a[1]\nfor i = -9223372036854775807 - 1, 4611686018427387903, step 4611686018427387904\na[0]\n", true},
}

// TestProgramProof covers the interval proof's edges: each nest's
// verdict, and identical references or error text from both paths under
// several placements.
func TestProgramProof(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range proofCases {
		t.Run(c.name, func(t *testing.T) {
			n, err := loopir.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := n.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if p.Proven() != c.proven {
				t.Errorf("proven = %v, want %v", p.Proven(), c.proven)
			}
			checkGenerate(t, p, loopir.SequentialLayout(n, 0))
			for range 8 {
				checkGenerate(t, p, randomLayout(rng, n, true))
			}
		})
	}
}

// FuzzGenerate generates parsed nests under random placements, padded
// or invalid, and requires Generate to emit the checked evaluator's
// references or fail with its error text. Nests of more than 2^18
// references, or whose loops would not terminate, are skipped.
func FuzzGenerate(f *testing.F) {
	for _, n := range kernels.All() {
		for _, b := range []int{1, 4} {
			tn, err := loopir.TileAll(n, b)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(tn.String(), int64(b))
		}
	}
	for i, c := range proofCases {
		f.Add(c.src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		n, err := loopir.Parse(src)
		if err != nil {
			return
		}
		if _, ok := loopir.CountReferences(n, 1<<18); !ok {
			return
		}
		p, err := n.Compile()
		if err != nil {
			t.Fatalf("Compile rejected a nest Parse accepted: %v", err)
		}
		checkGenerate(t, p, loopir.SequentialLayout(n, 0))
		rng := rand.New(rand.NewSource(seed))
		for range 4 {
			checkGenerate(t, p, randomLayout(rng, n, true))
		}
	})
}
