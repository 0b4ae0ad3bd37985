package loopir

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// transposeNest is the paper's Example 3(a): for i=1,n for j=1,n
// a[i][j] = b[j][i], the kernel tiling is designed for.
func transposeNest(n int) *Nest {
	return &Nest{
		Name: "transpose",
		Arrays: []Array{
			{Name: "a", Dims: []int{n + 1, n + 1}},
			{Name: "b", Dims: []int{n + 1, n + 1}},
		},
		Loops: []Loop{ConstLoop("i", 1, n), ConstLoop("j", 1, n)},
		Body: []Ref{
			Read("b", Var("j"), Var("i")),
			Store("a", Var("i"), Var("j")),
		},
	}
}

// iterationSet executes the nest and collects the multiset of
// (ref-position, index-tuple) events as strings, order-insensitively.
func iterationSet(t *testing.T, n *Nest) []string {
	t.Helper()
	var events []string
	err := n.Visit(func(r Ref, idx []int) error {
		s := r.String()
		for _, v := range idx {
			s += "," + string(rune('0'+v%10)) + ":"
			s += itoa(v)
		}
		events = append(events, s)
		return nil
	})
	if err != nil {
		t.Fatalf("Visit(%s): %v", n.Name, err)
	}
	sort.Strings(events)
	return events
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestTilePreservesIterationSet(t *testing.T) {
	orig := transposeNest(10)
	for _, size := range []int{1, 2, 3, 4, 7, 16} {
		tiled, err := TileAll(orig, size)
		if err != nil {
			t.Fatalf("TileAll(%d): %v", size, err)
		}
		a := iterationSet(t, orig)
		b := iterationSet(t, tiled)
		if len(a) != len(b) {
			t.Fatalf("tile %d: event counts differ: %d vs %d", size, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tile %d: event multisets differ at %d: %q vs %q", size, i, a[i], b[i])
			}
		}
	}
}

func TestTileChangesOrder(t *testing.T) {
	orig := transposeNest(8)
	tiled, err := TileAll(orig, 2)
	if err != nil {
		t.Fatal(err)
	}
	origTr, err := orig.Generate(SequentialLayout(orig, 0))
	if err != nil {
		t.Fatal(err)
	}
	tiledTr, err := tiled.Generate(SequentialLayout(orig, 0))
	if err != nil {
		t.Fatal(err)
	}
	if origTr.Len() != tiledTr.Len() {
		t.Fatalf("lengths differ: %d vs %d", origTr.Len(), tiledTr.Len())
	}
	same := true
	for i := 0; i < origTr.Len(); i++ {
		if origTr.At(i) != tiledTr.At(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("tiling with size 2 should reorder the reference stream")
	}
}

func TestTileDepth(t *testing.T) {
	tiled, err := TileAll(transposeNest(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Depth() != 4 {
		t.Errorf("tiled depth = %d, want 4 (2 control + 2 element)", tiled.Depth())
	}
	// Partial-tile cap: hi of the element loop is min(t_i+3, 8).
	inner := tiled.Loops[2]
	if inner.Hi.Cap != 8 {
		t.Errorf("element loop cap = %d, want 8", inner.Hi.Cap)
	}
}

func TestTileSize1IsIdentity(t *testing.T) {
	orig := transposeNest(5)
	tiled, err := TileAll(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Depth() != orig.Depth() {
		t.Errorf("B=1 should not add loops: depth %d", tiled.Depth())
	}
	a, _ := orig.Generate(SequentialLayout(orig, 0))
	b, _ := tiled.Generate(SequentialLayout(orig, 0))
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("B=1 changed the stream at ref %d", i)
		}
	}
}

func TestTileErrors(t *testing.T) {
	n := transposeNest(8)
	if _, err := Tile(n, 0, 0); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := Tile(n, 2); err == nil {
		t.Error("no levels should fail")
	}
	if _, err := Tile(n, 2, 5); err == nil {
		t.Error("out-of-range level should fail")
	}
	if _, err := Tile(n, 2, 0, 0); err == nil {
		t.Error("repeated level should fail")
	}
	stepped := transposeNest(8)
	stepped.Loops[0].Step = 2
	if _, err := Tile(stepped, 2, 0); err == nil {
		t.Error("non-unit step should fail")
	}
	// Tiling an already-tiled (affine-bound) loop is rejected.
	tiled, err := TileAll(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tile(tiled, 2, 2); err == nil {
		t.Error("tiling a non-constant-bound loop should fail")
	}
	// A tile bound ti+B-1 past the largest int would wrap and lose
	// iterations.
	edge := transposeNest(8)
	edge.Loops[0] = ConstLoop("i", math.MaxInt-2, math.MaxInt-1)
	var re *RunError
	if _, err := TileAll(edge, 4); !errors.As(err, &re) {
		t.Errorf("tiling up to the largest int: err = %v, want a *RunError", err)
	}
}

func TestInterchange(t *testing.T) {
	n := transposeNest(6)
	sw, err := Interchange(n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Loops[0].Var != "j" || sw.Loops[1].Var != "i" {
		t.Errorf("loops not swapped: %v, %v", sw.Loops[0].Var, sw.Loops[1].Var)
	}
	// Same iteration multiset.
	a := iterationSet(t, n)
	b := iterationSet(t, sw)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("interchange changed the iteration multiset")
		}
	}
	// Self-interchange is identity.
	id, err := Interchange(n, 1, 1)
	if err != nil || id.Depth() != 2 {
		t.Errorf("self interchange: %v", err)
	}
	// Out of range.
	if _, err := Interchange(n, 0, 9); err == nil {
		t.Error("out-of-range interchange should fail")
	}
	// Dependent bounds rejected.
	tiled, _ := TileAll(n, 2)
	if _, err := Interchange(tiled, 0, 2); err == nil {
		t.Error("interchanging control with dependent element loop should fail")
	}
}

// Property: for random rectangle sizes and tile sizes, the tiled nest
// issues exactly the same number of references as the original.
func TestQuickTileReferenceCount(t *testing.T) {
	f := func(nRaw, bRaw uint8) bool {
		n := int(nRaw%12) + 2
		b := int(bRaw%10) + 1
		orig := transposeNest(n)
		tiled, err := TileAll(orig, b)
		if err != nil {
			return false
		}
		r1, err1 := orig.References()
		r2, err2 := tiled.References()
		if err1 != nil || err2 != nil {
			return false
		}
		return r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnrollPreservesReferences(t *testing.T) {
	orig := transposeNest(8)
	for _, f := range []int{1, 2, 4, 8} {
		un, err := Unroll(orig, f)
		if err != nil {
			t.Fatalf("Unroll(%d): %v", f, err)
		}
		a, errA := orig.Generate(SequentialLayout(orig, 0))
		b, errB := un.Generate(SequentialLayout(orig, 0))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a.Len() != b.Len() {
			t.Fatalf("factor %d: lengths %d vs %d", f, a.Len(), b.Len())
		}
		// Unrolling reorders only within an unrolled group of the body;
		// for a single-statement body the stream is identical.
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("factor %d: ref %d differs", f, i)
			}
		}
		iters, err := un.Iterations()
		if err != nil {
			t.Fatal(err)
		}
		origIters, _ := orig.Iterations()
		if iters*int64(f) != origIters {
			t.Errorf("factor %d: iterations %d, want %d", f, iters, origIters/int64(f))
		}
	}
}

func TestUnrollErrors(t *testing.T) {
	n := transposeNest(8)
	if _, err := Unroll(n, 0); err == nil {
		t.Error("factor 0 should fail")
	}
	if _, err := Unroll(n, 3); err == nil {
		t.Error("non-dividing factor should fail (trip 8)")
	}
	tiled, _ := TileAll(n, 2)
	if _, err := Unroll(tiled, 2); err == nil {
		t.Error("non-constant inner bounds should fail")
	}
	bad := &Nest{Name: "bad"}
	if _, err := Unroll(bad, 2); err == nil {
		t.Error("invalid nest should fail")
	}
}

func TestUnrollBodyShift(t *testing.T) {
	n := &Nest{
		Name:   "u",
		Arrays: []Array{{Name: "a", Dims: []int{16}}},
		Loops:  []Loop{ConstLoop("i", 0, 15)},
		Body:   []Ref{Read("a", Var("i"))},
	}
	un, err := Unroll(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(un.Body) != 4 {
		t.Fatalf("body = %d refs", len(un.Body))
	}
	for k, r := range un.Body {
		if got := r.Index[0].Const; got != k {
			t.Errorf("replica %d const = %d, want %d", k, got, k)
		}
	}
	if un.Loops[0].Step != 4 {
		t.Errorf("step = %d, want 4", un.Loops[0].Step)
	}
}

func TestFuse(t *testing.T) {
	producer := &Nest{
		Name:   "produce",
		Arrays: []Array{{Name: "a", Dims: []int{32}}, {Name: "tmp", Dims: []int{32}}},
		Loops:  []Loop{ConstLoop("i", 0, 31)},
		Body:   []Ref{Read("a", Var("i")), Store("tmp", Var("i"))},
	}
	consumer := &Nest{
		Name:   "consume",
		Arrays: []Array{{Name: "tmp", Dims: []int{32}}, {Name: "out", Dims: []int{32}}},
		Loops:  []Loop{ConstLoop("i", 0, 31)},
		Body:   []Ref{Read("tmp", Var("i")), Store("out", Var("i"))},
	}
	fused, err := Fuse(producer, consumer)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Name != "produce+consume" {
		t.Errorf("name = %q", fused.Name)
	}
	if len(fused.Arrays) != 3 {
		t.Errorf("arrays = %d, want 3 (tmp shared)", len(fused.Arrays))
	}
	if len(fused.Body) != 4 {
		t.Errorf("body = %d refs", len(fused.Body))
	}
	refs, err := fused.References()
	if err != nil || refs != 32*4 {
		t.Errorf("references = %d, %v", refs, err)
	}
	// Fusion turns the inter-nest tmp reuse into immediate reuse: in a
	// tiny cache the fused version hits on tmp, the sequential pair does
	// not.
	fusedTr, err := fused.Generate(SequentialLayout(fused, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: a (miss amortized), tmp write, tmp read (hit!), out.
	// The fused tmp read must hit even in a 4-line cache.
	var hits int
	// Simple check: consecutive accesses to tmp at same address appear
	// adjacent in the trace.
	adjacent := 0
	for i := 1; i < fusedTr.Len(); i++ {
		if fusedTr.At(i).Addr == fusedTr.At(i-1).Addr {
			adjacent++
		}
	}
	if adjacent != 32 {
		t.Errorf("fused stream should repeat tmp addresses back-to-back: %d", adjacent)
	}
	_ = hits
}

func TestFuseErrors(t *testing.T) {
	base := &Nest{
		Name:   "a",
		Arrays: []Array{{Name: "x", Dims: []int{8}}},
		Loops:  []Loop{ConstLoop("i", 0, 7)},
		Body:   []Ref{Read("x", Var("i"))},
	}
	deeper := &Nest{
		Name:   "b",
		Arrays: []Array{{Name: "x", Dims: []int{8}}},
		Loops:  []Loop{ConstLoop("i", 0, 7), ConstLoop("j", 0, 7)},
		Body:   []Ref{Read("x", Var("i"))},
	}
	if _, err := Fuse(base, deeper); err == nil {
		t.Error("depth mismatch should fail")
	}
	otherVar := &Nest{
		Name:   "c",
		Arrays: []Array{{Name: "x", Dims: []int{8}}},
		Loops:  []Loop{ConstLoop("k", 0, 7)},
		Body:   []Ref{Read("x", Var("k"))},
	}
	if _, err := Fuse(base, otherVar); err == nil {
		t.Error("variable mismatch should fail")
	}
	conflicting := &Nest{
		Name:   "d",
		Arrays: []Array{{Name: "x", Dims: []int{16}}},
		Loops:  []Loop{ConstLoop("i", 0, 7)},
		Body:   []Ref{Read("x", Var("i"))},
	}
	if _, err := Fuse(base, conflicting); err == nil {
		t.Error("conflicting shared array should fail")
	}
	bad := &Nest{Name: "bad"}
	if _, err := Fuse(base, bad); err == nil {
		t.Error("invalid operand should fail")
	}
}
