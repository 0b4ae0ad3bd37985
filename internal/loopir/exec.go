package loopir

import "memexplore/internal/trace"

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

// visitIndexed executes a compiled nest and calls fn for every body
// reference of every innermost iteration with the body index and the
// evaluated per-dimension indices. The idx slice is reused between
// calls.
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
		lo, hi := l.lo.eval(env), l.hi.eval(env)
		for v := lo; v <= hi; v += l.step {
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
	return visitIndexed(loops, body, func(bi int, idx []int) error {
		return fn(n.Body[bi], idx)
	})
}

// Iterations counts the innermost iterations the nest executes.
func (n *Nest) Iterations() (int64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	loops, _ := n.compileExec()
	return iterations(loops), nil
}

// iterations walks the loop structure only — bounds may be affine, so
// the outer levels must execute, but the innermost trip count is
// closed-form.
func iterations(loops []cLoop) int64 {
	env := make([]int, len(loops))
	var iters int64
	var run func(depth int)
	run = func(depth int) {
		l := &loops[depth]
		lo, hi := l.lo.eval(env), l.hi.eval(env)
		if depth == len(loops)-1 {
			if hi >= lo {
				iters += int64((hi-lo)/l.step) + 1
			}
			return
		}
		for v := lo; v <= hi; v += l.step {
			env[depth] = v
			run(depth + 1)
		}
	}
	run(0)
	return iters
}

// References counts the total memory references the nest issues — the
// trip_count of the paper's formulas under per-reference accounting.
func (n *Nest) References() (int64, error) {
	iters, err := n.Iterations()
	if err != nil {
		return 0, err
	}
	return iters * int64(len(n.Body)), nil
}

// Generate executes the nest under the given layout and returns the
// reference trace: Compile, then Program.Generate. Every index is
// within its array's extent; an out-of-range index is an error (it
// means the kernel definition is wrong).
func (n *Nest) Generate(layout Layout) (*trace.Trace, error) {
	p, err := n.Compile()
	if err != nil {
		return nil, err
	}
	return p.Generate(layout)
}
