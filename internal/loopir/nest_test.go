package loopir

import (
	"errors"
	"strings"
	"testing"
)

// compressNest is the paper's Example 1 (§2.3): int a[32][32]; for i=1,31
// for j=1,31: a[i][j] = a[i][j] - a[i-1][j] - a[i][j-1] - 2*a[i-1][j-1].
func compressNest() *Nest {
	i, j := Var("i"), Var("j")
	im1, jm1 := Affine(-1, "i", 1), Affine(-1, "j", 1)
	return &Nest{
		Name:   "compress",
		Arrays: []Array{{Name: "a", Dims: []int{32, 32}}},
		Loops:  []Loop{ConstLoop("i", 1, 31), ConstLoop("j", 1, 31)},
		Body: []Ref{
			Read("a", i, j),
			Read("a", im1, j),
			Read("a", i, jm1),
			Read("a", im1, jm1),
			Store("a", i, j),
		},
	}
}

func TestArrayGeometry(t *testing.T) {
	a := Array{Name: "a", Dims: []int{6, 6}}
	if a.ElementBytes() != 1 {
		t.Errorf("default element size = %d", a.ElementBytes())
	}
	if a.Elems() != 36 || a.SizeBytes() != 36 {
		t.Errorf("elems=%d size=%d", a.Elems(), a.SizeBytes())
	}
	s := a.RowStrides()
	if s[0] != 6 || s[1] != 1 {
		t.Errorf("strides = %v", s)
	}
	b := Array{Name: "b", Dims: []int{2, 3, 4}, ElemBytes: 2}
	bs := b.RowStrides()
	if bs[0] != 12 || bs[1] != 4 || bs[2] != 1 {
		t.Errorf("3d strides = %v", bs)
	}
	if b.SizeBytes() != 48 {
		t.Errorf("3d size = %d", b.SizeBytes())
	}
}

func TestBounds(t *testing.T) {
	b := CappedBound(Affine(7, "t", 1), 31)
	if got, _ := b.Eval(map[string]int{"t": 10}); got != 17 {
		t.Errorf("uncapped eval = %d", got)
	}
	if got, _ := b.Eval(map[string]int{"t": 30}); got != 31 {
		t.Errorf("capped eval = %d, want 31", got)
	}
	if s := b.String(); s != "min(t + 7, 31)" {
		t.Errorf("String = %q", s)
	}
	if s := ConstBound(5).String(); s != "5" {
		t.Errorf("const bound String = %q", s)
	}
	if _, err := ExprBound(Var("x")).Eval(nil); err == nil {
		t.Error("unbound bound var should fail")
	}
}

func TestValidateAcceptsCompress(t *testing.T) {
	if err := compressNest().Validate(); err != nil {
		t.Fatalf("compress nest invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Nest)
	}{
		{"no name", func(n *Nest) { n.Name = "" }},
		{"no loops", func(n *Nest) { n.Loops = nil }},
		{"empty body", func(n *Nest) { n.Body = nil }},
		{"dup array", func(n *Nest) { n.Arrays = append(n.Arrays, n.Arrays[0]) }},
		{"unnamed array", func(n *Nest) { n.Arrays[0].Name = "" }},
		{"no dims", func(n *Nest) { n.Arrays[0].Dims = nil }},
		{"zero extent", func(n *Nest) { n.Arrays[0].Dims[0] = 0 }},
		{"negative elem", func(n *Nest) { n.Arrays[0].ElemBytes = -1 }},
		{"elem wider than a trace reference", func(n *Nest) { n.Arrays[0].ElemBytes = 256 }},
		{"unnamed loop", func(n *Nest) { n.Loops[0].Var = "" }},
		{"dup loop var", func(n *Nest) { n.Loops[1].Var = "i" }},
		{"zero step", func(n *Nest) { n.Loops[0].Step = 0 }},
		{"bound uses inner var", func(n *Nest) { n.Loops[0].Hi = ExprBound(Var("j")) }},
		{"bound uses unknown var", func(n *Nest) { n.Loops[1].Hi = ExprBound(Var("q")) }},
		{"undeclared array", func(n *Nest) { n.Body[0].Array = "zz" }},
		{"wrong arity", func(n *Nest) { n.Body[0].Index = n.Body[0].Index[:1] }},
		{"unknown ref var", func(n *Nest) { n.Body[0].Index[0] = Var("q") }},
	}
	for _, m := range mutations {
		n := compressNest()
		m.mutate(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken nest", m.name)
		}
	}
}

func TestIterationsAndReferences(t *testing.T) {
	n := compressNest()
	iters, err := n.Iterations()
	if err != nil {
		t.Fatal(err)
	}
	if iters != 31*31 {
		t.Errorf("iterations = %d, want 961", iters)
	}
	refs, err := n.References()
	if err != nil {
		t.Fatal(err)
	}
	if refs != 31*31*5 {
		t.Errorf("references = %d, want 4805", refs)
	}
}

// TestCountsAtTheIntLimits: trip counts are exact over the whole int
// range, a nest issuing more than 2^63-1 references is a *RunError from
// References and Compile rather than a negative count, and no loop walk
// wraps past the largest int.
func TestCountsAtTheIntLimits(t *testing.T) {
	cases := []struct {
		name, src string
		refs      int64 // 0: more than math.MaxInt64
	}{
		{"trip count wrapping", "int8 a[1]\nfor i = -9223372036854775807 - 1, 4611686018427387903, step 4611686018427387904\na[0]\n", 3},
		{"full int range", "int8 a[1]\nfor i = -9223372036854775807 - 1, 9223372036854775807\na[0]\n", 0},
		{"references overflow", "int8 a[1]\nfor i = 0, 9223372036854775806\na[0], a[0]\n", 0},
		{"iterations overflow", "int8 a[1]\nfor i = 0, 3\nfor j = 0, 4611686018427387903\na[0]\n", 0},
		{"outer loop ending at the largest int", "int8 a[1]\nfor i = 9223372036854775806, 9223372036854775807\nfor j = 0, 0\na[0]\n", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			refs, err := n.References()
			_, cerr := n.Compile()
			if c.refs == 0 {
				var re *RunError
				if !errors.As(err, &re) || !errors.As(cerr, &re) {
					t.Fatalf("References = %d, %v; Compile: %v; want *RunError from both", refs, err, cerr)
				}
				return
			}
			if err != nil || cerr != nil || refs != c.refs {
				t.Fatalf("References = %d, %v; Compile: %v; want %d", refs, err, cerr, c.refs)
			}
			tr, err := n.Generate(SequentialLayout(n, 0))
			if err != nil || int64(tr.Len()) != c.refs {
				t.Fatalf("Generate: %v, %d references, want %d", err, tr.Len(), c.refs)
			}
		})
	}
}

func TestGenerateCompressAddresses(t *testing.T) {
	n := compressNest()
	tr, err := n.Generate(SequentialLayout(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 31*31*5 {
		t.Fatalf("trace length %d", tr.Len())
	}
	// First iteration (i=1, j=1): a[1][1]=33, a[0][1]=1, a[1][0]=32,
	// a[0][0]=0, then write a[1][1]=33.
	want := []uint64{33, 1, 32, 0, 33}
	for k, w := range want {
		if got := tr.At(k).Addr; got != w {
			t.Errorf("ref %d addr = %d, want %d", k, got, w)
		}
	}
	if tr.At(4).Kind.String() != "write" {
		t.Errorf("ref 4 should be a write, got %v", tr.At(4).Kind)
	}
	if tr.At(0).Kind.String() != "read" {
		t.Errorf("ref 0 should be a read")
	}
	// Element size 1 → paper's byte addressing: last address must be
	// a[31][31] = 1023.
	_, hi, _ := tr.AddrRange()
	if hi != 1023 {
		t.Errorf("max address = %d, want 1023", hi)
	}
}

func TestGenerateRespectsLayoutAndElemSize(t *testing.T) {
	n := &Nest{
		Name:   "twoarr",
		Arrays: []Array{{Name: "a", Dims: []int{4}, ElemBytes: 4}, {Name: "b", Dims: []int{4}, ElemBytes: 4}},
		Loops:  []Loop{ConstLoop("i", 0, 3)},
		Body:   []Ref{Read("a", Var("i")), Read("b", Var("i"))},
	}
	layout := Layout{"a": {Base: 100}, "b": {Base: 200}}
	tr, err := n.Generate(layout)
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(0).Addr != 100 || tr.At(1).Addr != 200 {
		t.Errorf("base addresses wrong: %d, %d", tr.At(0).Addr, tr.At(1).Addr)
	}
	if tr.At(2).Addr != 104 {
		t.Errorf("a[1] addr = %d, want 104 (4-byte elements)", tr.At(2).Addr)
	}
	if got := tr.At(0).EffectiveSize(); got != 4 {
		t.Errorf("access size = %d, want 4", got)
	}
}

func TestGenerateMissingLayout(t *testing.T) {
	n := compressNest()
	if _, err := n.Generate(Layout{}); err == nil {
		t.Error("missing array in layout should fail")
	}
}

func TestGenerateOutOfBounds(t *testing.T) {
	n := compressNest()
	n.Loops[0] = ConstLoop("i", 0, 31) // a[i-1] underflows at i=0
	var re *RunError
	if _, err := n.Generate(SequentialLayout(n, 0)); !errors.As(err, &re) || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-bounds reference: err = %v, want a *RunError", err)
	}
}

func TestSequentialLayout(t *testing.T) {
	n := &Nest{
		Name: "seq",
		Arrays: []Array{
			{Name: "a", Dims: []int{6, 6}},
			{Name: "b", Dims: []int{6, 6}},
			{Name: "c", Dims: []int{2}, ElemBytes: 4},
		},
		Loops: []Loop{ConstLoop("i", 0, 0)},
		Body:  []Ref{Read("c", Const(0))},
	}
	l := SequentialLayout(n, 1000)
	if l["a"].Base != 1000 || l["b"].Base != 1036 || l["c"].Base != 1072 {
		t.Errorf("layout = %v", l)
	}
}

func TestPaddedStrides(t *testing.T) {
	n := &Nest{
		Name:   "padded",
		Arrays: []Array{{Name: "a", Dims: []int{4, 8}}},
		Loops:  []Loop{ConstLoop("i", 0, 3), ConstLoop("j", 0, 7)},
		Body:   []Ref{Read("a", Var("i"), Var("j"))},
	}
	// Pad the row stride from 8 to 12 — the §4.1 mechanism.
	layout := Layout{"a": {Base: 0, StrideBytes: []int{12, 1}}}
	tr, err := n.Generate(layout)
	if err != nil {
		t.Fatal(err)
	}
	// a[1][0] must now sit at 12, not 8.
	if got := tr.At(8).Addr; got != 12 {
		t.Errorf("a[1][0] addr = %d, want 12", got)
	}
	if got := layout["a"].FootprintBytes(n.Arrays[0]); got != 3*12+7+1 {
		t.Errorf("footprint = %d, want 44", got)
	}
	if got := (Placement{}).FootprintBytes(n.Arrays[0]); got != 32 {
		t.Errorf("natural footprint = %d, want 32", got)
	}
	// Overlapping strides are rejected.
	bad := Layout{"a": {Base: 0, StrideBytes: []int{4, 1}}}
	if _, err := n.Generate(bad); err == nil {
		t.Error("overlapping row stride should fail")
	}
	// Wrong arity is rejected.
	if _, err := n.Generate(Layout{"a": {StrideBytes: []int{1}}}); err == nil {
		t.Error("wrong stride arity should fail")
	}
}

func TestNestString(t *testing.T) {
	s := compressNest().String()
	for _, want := range []string{"// compress", "int8 a[32][32]", "for i = 1, 31", "a[i - 1][j - 1]", "a[i][j] (w)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestVisitStopsOnError(t *testing.T) {
	n := compressNest()
	calls := 0
	err := n.Visit(func(Ref, []int) error {
		calls++
		if calls == 3 {
			return strings.NewReader("").UnreadByte() // any non-nil error
		}
		return nil
	})
	if err == nil {
		t.Fatal("Visit should propagate the error")
	}
	if calls != 3 {
		t.Errorf("Visit continued after error: %d calls", calls)
	}
}
