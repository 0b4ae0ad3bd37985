package loopir

import (
	"fmt"
	"math"
)

// Array declares a named, rectangular, row-major array.
type Array struct {
	// Name is the array identifier, unique within a nest.
	Name string
	// Dims are the extents of each dimension, e.g. {32, 32} for a[32][32].
	Dims []int
	// ElemBytes is the element size in bytes. Zero means 1, matching the
	// paper's byte-granularity address arithmetic (a[32][32] occupies
	// addresses base..base+1023).
	ElemBytes int
}

// ElementBytes returns the element size, treating 0 as 1.
func (a Array) ElementBytes() int {
	if a.ElemBytes == 0 {
		return 1
	}
	return a.ElemBytes
}

// Elems returns the total number of elements.
func (a Array) Elems() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// SizeBytes returns the total footprint in bytes.
func (a Array) SizeBytes() int { return a.Elems() * a.ElementBytes() }

// RowStrides returns, per dimension, the distance in elements between
// consecutive indices of that dimension (row-major).
func (a Array) RowStrides() []int {
	strides := make([]int, len(a.Dims))
	s := 1
	for d := len(a.Dims) - 1; d >= 0; d-- {
		strides[d] = s
		s *= a.Dims[d]
	}
	return strides
}

// NoCap is the Bound.Cap value meaning "no min() cap".
const NoCap = math.MaxInt

// Bound is one end of a loop range: an affine expression over outer loop
// variables, optionally capped by min(expr, Cap). The cap is what tiling
// introduces for the last partial tile ("min(ti+63, n)" in the paper's
// Example 3(b)).
type Bound struct {
	Expr Expr
	Cap  int
}

// ConstBound returns an uncapped constant bound.
func ConstBound(c int) Bound { return Bound{Expr: Const(c), Cap: NoCap} }

// ExprBound returns an uncapped affine bound.
func ExprBound(e Expr) Bound { return Bound{Expr: e, Cap: NoCap} }

// CappedBound returns min(expr, cap).
func CappedBound(e Expr, cap int) Bound { return Bound{Expr: e, Cap: cap} }

// Eval evaluates the bound under env.
func (b Bound) Eval(env map[string]int) (int, error) {
	v, err := b.Expr.Eval(env)
	if err != nil {
		return 0, err
	}
	if b.Cap != NoCap && b.Cap < v {
		v = b.Cap
	}
	return v, nil
}

// String renders the bound.
func (b Bound) String() string {
	if b.Cap != NoCap {
		return fmt.Sprintf("min(%s, %d)", b.Expr, b.Cap)
	}
	return b.Expr.String()
}

// Loop is one loop level: for Var := Lo; Var <= Hi; Var += Step. Bounds are
// inclusive, matching the paper's "for i=1,31" notation.
type Loop struct {
	Var  string
	Lo   Bound
	Hi   Bound
	Step int
}

// ConstLoop builds a simple constant-bounded loop with step 1.
func ConstLoop(v string, lo, hi int) Loop {
	return Loop{Var: v, Lo: ConstBound(lo), Hi: ConstBound(hi), Step: 1}
}

// Ref is a single array reference in the loop body, with one affine index
// expression per array dimension.
type Ref struct {
	Array string
	Index []Expr
	// Write marks a store; everything else is a load.
	Write bool
}

// Read builds a read reference.
func Read(array string, index ...Expr) Ref { return Ref{Array: array, Index: index} }

// Store builds a write reference.
func Store(array string, index ...Expr) Ref {
	return Ref{Array: array, Index: index, Write: true}
}

// String renders the reference, e.g. "a[i - 1][j]" or "a[i][j] (w)".
func (r Ref) String() string {
	s := r.Array
	for _, e := range r.Index {
		s += "[" + e.String() + "]"
	}
	if r.Write {
		s += " (w)"
	}
	return s
}

// Nest is a complete loop nest: declarations, loops outermost-first, and
// the body references executed once per innermost iteration, in order.
type Nest struct {
	Name   string
	Arrays []Array
	Loops  []Loop
	Body   []Ref
}

// Array returns the declaration of the named array.
func (n *Nest) Array(name string) (Array, bool) {
	for _, a := range n.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return Array{}, false
}

// Depth returns the number of loop levels.
func (n *Nest) Depth() int { return len(n.Loops) }

// maxElemBytes is the widest element a nest may declare: a trace
// reference records its width in one byte (trace.Ref.Size).
const maxElemBytes = 255

// Validate checks structural well-formedness: non-empty loops and body,
// unique array and loop-variable names, positive steps, declared arrays
// with matching dimensionality, bounds referring only to outer variables,
// positive array extents and element sizes of at most maxElemBytes.
func (n *Nest) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("loopir: nest has no name")
	}
	if len(n.Loops) == 0 {
		return fmt.Errorf("loopir: nest %q has no loops", n.Name)
	}
	if len(n.Body) == 0 {
		return fmt.Errorf("loopir: nest %q has an empty body", n.Name)
	}
	arrays := map[string]Array{}
	for _, a := range n.Arrays {
		if a.Name == "" {
			return fmt.Errorf("loopir: nest %q declares an unnamed array", n.Name)
		}
		if _, dup := arrays[a.Name]; dup {
			return fmt.Errorf("loopir: nest %q declares array %q twice", n.Name, a.Name)
		}
		if len(a.Dims) == 0 {
			return fmt.Errorf("loopir: array %q has no dimensions", a.Name)
		}
		for d, ext := range a.Dims {
			if ext <= 0 {
				return fmt.Errorf("loopir: array %q dimension %d has extent %d", a.Name, d, ext)
			}
		}
		if a.ElemBytes < 0 {
			return fmt.Errorf("loopir: array %q has negative element size", a.Name)
		}
		if a.ElemBytes > maxElemBytes {
			return fmt.Errorf("loopir: array %q has %d-byte elements, above the %d-byte maximum of a trace reference",
				a.Name, a.ElemBytes, maxElemBytes)
		}
		arrays[a.Name] = a
	}
	outer := map[string]bool{}
	for li, l := range n.Loops {
		if l.Var == "" {
			return fmt.Errorf("loopir: nest %q loop %d has no variable", n.Name, li)
		}
		if outer[l.Var] {
			return fmt.Errorf("loopir: nest %q reuses loop variable %q", n.Name, l.Var)
		}
		if l.Step <= 0 {
			return fmt.Errorf("loopir: nest %q loop %q has non-positive step %d", n.Name, l.Var, l.Step)
		}
		for _, bv := range [][]string{l.Lo.Expr.Vars(), l.Hi.Expr.Vars()} {
			for _, v := range bv {
				if !outer[v] {
					return fmt.Errorf("loopir: nest %q loop %q bound uses %q, which is not an outer loop variable", n.Name, l.Var, v)
				}
			}
		}
		outer[l.Var] = true
	}
	for ri, r := range n.Body {
		a, ok := arrays[r.Array]
		if !ok {
			return fmt.Errorf("loopir: nest %q body ref %d uses undeclared array %q", n.Name, ri, r.Array)
		}
		if len(r.Index) != len(a.Dims) {
			return fmt.Errorf("loopir: nest %q ref %s has %d indices, array has %d dims",
				n.Name, r, len(r.Index), len(a.Dims))
		}
		for _, e := range r.Index {
			for _, v := range e.Vars() {
				if !outer[v] {
					return fmt.Errorf("loopir: nest %q ref %s uses unknown variable %q", n.Name, r, v)
				}
			}
		}
	}
	return nil
}
