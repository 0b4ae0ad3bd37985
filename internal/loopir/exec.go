package loopir

import (
	"fmt"
	"math"

	"memexplore/internal/trace"
)

// RunError reports a nest that validates but cannot run: it issues more
// than math.MaxInt64 references, a tiled bound overflows, or a body
// index leaves its array's extent. The fault lies in the nest itself,
// not in a layout or the caller's options.
type RunError struct {
	Nest   string
	Reason string
}

func (e *RunError) Error() string { return fmt.Sprintf("loopir: nest %q %s", e.Nest, e.Reason) }

// Placement positions one array in off-chip memory: a base byte address
// and, optionally, padded per-dimension strides. The paper's §4.1
// assignment works exactly by padding — in its Compress example a[1][0] is
// moved from address 32 to 36, i.e. the row stride grows from 32 to 36
// bytes, leaving dead addresses that buy conflict freedom.
type Placement struct {
	// Base is the byte address of element [0][0]…[0].
	Base uint64
	// StrideBytes overrides the byte distance between consecutive indices
	// of each dimension. nil means the natural packed row-major strides
	// (RowStrides() · ElemBytes). If set, it must have one entry per
	// dimension and each stride must be at least the natural one.
	StrideBytes []int
}

// FootprintBytes returns how many bytes of memory the placement of array a
// spans, padding included.
func (p Placement) FootprintBytes(a Array) int {
	if p.StrideBytes == nil {
		return a.SizeBytes()
	}
	end := a.ElementBytes()
	for d, ext := range a.Dims {
		end += (ext - 1) * p.StrideBytes[d]
	}
	return end
}

// Layout assigns a Placement to every array of a nest. It is the off-chip
// data organization of the paper's §4.1: the exploration varies it (via
// internal/layout) to eliminate conflict misses.
type Layout map[string]Placement

// SequentialLayout packs the arrays contiguously in declaration order
// starting at the given base, with natural strides — the "unoptimized"
// layout of the paper's Figures 5 and 9.
func SequentialLayout(n *Nest, base uint64) Layout {
	l := Layout{}
	addr := base
	for _, a := range n.Arrays {
		l[a.Name] = Placement{Base: addr}
		addr += uint64(a.SizeBytes())
	}
	return l
}

// The executor compiles the nest's affine expressions once per run:
// loop variables become slots in a flat []int environment and every
// Expr becomes a sparse list of (slot, coefficient) terms, so the
// per-iteration work is a handful of integer multiply-adds with no map
// lookups. Validate guarantees every variable is a declared loop
// variable (and bounds only use outer ones), so evaluation cannot fail
// after it passes.

// cTerm is one coefficient·slot term of a compiled affine expression.
type cTerm struct {
	slot int
	coef int
}

// cExpr is a compiled Expr (or Bound): sum(coef·env[slot]) + cnst,
// capped by min(·, cap). Plain expressions use cap = NoCap.
type cExpr struct {
	terms []cTerm
	cnst  int
	cap   int
}

func (e *cExpr) eval(env []int) int {
	v := e.cnst
	for _, t := range e.terms {
		v += t.coef * env[t.slot]
	}
	if e.cap < v {
		v = e.cap
	}
	return v
}

// cLoop is a compiled loop level.
type cLoop struct {
	lo, hi cExpr
	step   int
}

// compileExec lowers the nest to the compiled executor form. The caller
// must have validated the nest.
func (n *Nest) compileExec() ([]cLoop, [][]cExpr) {
	slot := make(map[string]int, len(n.Loops))
	for d, l := range n.Loops {
		slot[l.Var] = d
	}
	comp := func(e Expr, cap int) cExpr {
		ce := cExpr{cnst: e.Const, cap: cap}
		for v, c := range e.Coef {
			if c != 0 {
				ce.terms = append(ce.terms, cTerm{slot: slot[v], coef: c})
			}
		}
		return ce
	}
	loops := make([]cLoop, len(n.Loops))
	for d, l := range n.Loops {
		loops[d] = cLoop{lo: comp(l.Lo.Expr, l.Lo.Cap), hi: comp(l.Hi.Expr, l.Hi.Cap), step: l.Step}
	}
	body := make([][]cExpr, len(n.Body))
	for bi, r := range n.Body {
		body[bi] = make([]cExpr, len(r.Index))
		for d, e := range r.Index {
			body[bi][d] = comp(e, NoCap)
		}
	}
	return loops, body
}

// tripCount returns how many times a loop from lo to hi by step (≥ 1)
// runs: 0 when hi < lo, counted exactly in uint64, and false when the
// count exceeds math.MaxInt64. Every loop walk runs its trip count
// rather than stepping until it passes hi, so no walk can wrap around
// the int range.
func tripCount(lo, hi, step int) (int64, bool) {
	if hi < lo {
		return 0, true
	}
	q := (uint64(hi) - uint64(lo)) / uint64(step)
	if q >= math.MaxInt64 {
		return 0, false
	}
	return int64(q) + 1, true
}

// visitIndexed executes a compiled nest and calls fn for every body
// reference of every innermost iteration with the body index and the
// evaluated per-dimension indices. The idx slice is reused between
// calls. The nest must have been counted (countRefs), so every trip
// count fits an int64.
func visitIndexed(loops []cLoop, body [][]cExpr, fn func(bi int, idx []int) error) error {
	maxDims := 0
	for _, idx := range body {
		maxDims = max(maxDims, len(idx))
	}
	env := make([]int, len(loops))
	idxBuf := make([]int, maxDims)
	var run func(depth int) error
	run = func(depth int) error {
		if depth == len(loops) {
			for bi := range body {
				ce := body[bi]
				idx := idxBuf[:len(ce)]
				for d := range ce {
					idx[d] = ce[d].eval(env)
				}
				if err := fn(bi, idx); err != nil {
					return err
				}
			}
			return nil
		}
		l := &loops[depth]
		lo := l.lo.eval(env)
		trip, _ := tripCount(lo, l.hi.eval(env), l.step)
		for k, v := int64(0), lo; k < trip; k, v = k+1, v+l.step {
			env[depth] = v
			if err := run(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return run(0)
}

// Visit executes the nest and calls fn for every reference of every
// innermost iteration, passing the evaluated per-dimension indices.
// Execution stops at the first error.
func (n *Nest) Visit(fn func(r Ref, idx []int) error) error {
	if err := n.Validate(); err != nil {
		return err
	}
	loops, body := n.compileExec()
	if _, err := n.countRefs(loops); err != nil {
		return err
	}
	return visitIndexed(loops, body, func(bi int, idx []int) error {
		return fn(n.Body[bi], idx)
	})
}

// Iterations counts the innermost iterations the nest executes. A count
// beyond math.MaxInt64 is a *RunError.
func (n *Nest) Iterations() (int64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	loops, _ := n.compileExec()
	iters, ok := iterations(loops)
	if !ok {
		return 0, &RunError{Nest: n.Name, Reason: fmt.Sprintf("runs more than %d iterations", int64(math.MaxInt64))}
	}
	return iters, nil
}

// iterations counts the innermost iterations of a compiled nest. Bounds
// may be affine, so the outer levels must execute, but each level's
// trip count is closed-form. ok is false when a trip count or the total
// exceeds math.MaxInt64.
func iterations(loops []cLoop) (iters int64, ok bool) {
	env := make([]int, len(loops))
	var run func(depth int) bool
	run = func(depth int) bool {
		l := &loops[depth]
		lo := l.lo.eval(env)
		trip, ok := tripCount(lo, l.hi.eval(env), l.step)
		if !ok {
			return false
		}
		if depth == len(loops)-1 {
			if trip > math.MaxInt64-iters {
				return false
			}
			iters += trip
			return true
		}
		for k, v := int64(0), lo; k < trip; k, v = k+1, v+l.step {
			env[depth] = v
			if !run(depth + 1) {
				return false
			}
		}
		return true
	}
	ok = run(0)
	return iters, ok
}

// countRefs counts the references the compiled nest issues, failing
// with a *RunError when the count exceeds math.MaxInt64.
func (n *Nest) countRefs(loops []cLoop) (int64, error) {
	iters, ok := iterations(loops)
	if b := int64(len(n.Body)); ok && iters <= math.MaxInt64/b {
		return iters * b, nil
	}
	return 0, &RunError{Nest: n.Name, Reason: fmt.Sprintf("issues more than %d references", int64(math.MaxInt64))}
}

// References counts the total memory references the nest issues — the
// trip_count of the paper's formulas under per-reference accounting. A
// count beyond math.MaxInt64 is a *RunError.
func (n *Nest) References() (int64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	loops, _ := n.compileExec()
	return n.countRefs(loops)
}

// Generate executes the nest under the given layout and returns the
// reference trace: Compile, then Program.Generate. Every index is
// within its array's extent; an out-of-range index is a *RunError (it
// means the kernel definition is wrong).
func (n *Nest) Generate(layout Layout) (*trace.Trace, error) {
	p, err := n.Compile()
	if err != nil {
		return nil, err
	}
	return p.Generate(layout)
}
