package loopir

import (
	"fmt"
	"math"
)

// Tile applies rectangular loop tiling (§4.2, the paper's Example 3(b)) to
// the given loop levels of the nest with the given tile size B. For each
// tiled level
//
//	for i = lo, hi
//
// a tile-controlling loop is hoisted outermost (in level order)
//
//	for ti = lo, hi, B
//	  ...
//	    for i = ti, min(ti+B-1, hi)
//
// Only levels with constant bounds can be tiled (the paper never tiles a
// triangular nest), and a level whose tile bound ti+B-1 could overflow
// is a *RunError. Tiling with size ≤ 0 is an error; size 1 is legal and
// degenerates to the original iteration order with extra (empty) control
// structure, so callers usually special-case B == 1 themselves.
//
// The returned nest is new; the input is not modified.
func Tile(n *Nest, size int, levels ...int) (*Nest, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("loopir: tile size %d must be positive", size)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("loopir: Tile needs at least one loop level")
	}
	seen := map[int]bool{}
	for _, lv := range levels {
		if lv < 0 || lv >= len(n.Loops) {
			return nil, fmt.Errorf("loopir: tile level %d out of range [0,%d)", lv, len(n.Loops))
		}
		if seen[lv] {
			return nil, fmt.Errorf("loopir: tile level %d repeated", lv)
		}
		seen[lv] = true
		l := n.Loops[lv]
		if !l.Lo.Expr.IsConst() || !l.Hi.Expr.IsConst() || l.Lo.Cap != NoCap || l.Hi.Cap != NoCap {
			return nil, fmt.Errorf("loopir: cannot tile loop %q: bounds are not constant", l.Var)
		}
		if l.Step != 1 {
			return nil, fmt.Errorf("loopir: cannot tile loop %q with step %d", l.Var, l.Step)
		}
		if l.Hi.Expr.Const > math.MaxInt-(size-1) {
			return nil, &RunError{Nest: n.Name, Reason: fmt.Sprintf("cannot be tiled by %d: loop %q's tile bound overflows", size, l.Var)}
		}
	}

	out := &Nest{
		Name:   fmt.Sprintf("%s/tile%d", n.Name, size),
		Arrays: append([]Array(nil), n.Arrays...),
		Body:   append([]Ref(nil), n.Body...),
	}
	// Tile-controlling loops, outermost, in level order.
	for _, lv := range levels {
		l := n.Loops[lv]
		out.Loops = append(out.Loops, Loop{
			Var:  "t_" + l.Var,
			Lo:   l.Lo,
			Hi:   l.Hi,
			Step: size,
		})
	}
	// Original loops in original order; tiled ones get tile-local bounds.
	for lv, l := range n.Loops {
		if seen[lv] {
			hi := l.Hi.Expr.Const // constant by the check above
			out.Loops = append(out.Loops, Loop{
				Var:  l.Var,
				Lo:   ExprBound(Var("t_" + l.Var)),
				Hi:   CappedBound(Affine(size-1, "t_"+l.Var, 1), hi),
				Step: 1,
			})
		} else {
			out.Loops = append(out.Loops, l)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("loopir: tiled nest invalid: %w", err)
	}
	return out, nil
}

// TileAll tiles every tileable loop level of the nest with the given
// size: levels with constant bounds and unit step. Size 1 — or a nest
// with no tileable level (e.g. an unrolled inner loop with step > 1) —
// returns a copy of the original nest unchanged.
func TileAll(n *Nest, size int) (*Nest, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	var levels []int
	if size > 1 {
		for i, l := range n.Loops {
			if l.Lo.Expr.IsConst() && l.Hi.Expr.IsConst() &&
				l.Lo.Cap == NoCap && l.Hi.Cap == NoCap && l.Step == 1 {
				levels = append(levels, i)
			}
		}
	}
	if len(levels) == 0 {
		cp := *n
		return &cp, nil
	}
	return Tile(n, size, levels...)
}

// Interchange swaps two loop levels. It is the caller's responsibility that
// the interchange is semantically legal for their kernel; structurally it
// is rejected if either loop's bounds reference the other's variable.
func Interchange(n *Nest, a, b int) (*Nest, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if a < 0 || a >= len(n.Loops) || b < 0 || b >= len(n.Loops) {
		return nil, fmt.Errorf("loopir: interchange levels (%d,%d) out of range", a, b)
	}
	if a == b {
		cp := *n
		return &cp, nil
	}
	la, lb := n.Loops[a], n.Loops[b]
	for _, v := range append(la.Lo.Expr.Vars(), la.Hi.Expr.Vars()...) {
		if v == lb.Var {
			return nil, fmt.Errorf("loopir: cannot interchange: loop %q bounds use %q", la.Var, lb.Var)
		}
	}
	for _, v := range append(lb.Lo.Expr.Vars(), lb.Hi.Expr.Vars()...) {
		if v == la.Var {
			return nil, fmt.Errorf("loopir: cannot interchange: loop %q bounds use %q", lb.Var, la.Var)
		}
	}
	out := &Nest{
		Name:   n.Name + "/interchanged",
		Arrays: append([]Array(nil), n.Arrays...),
		Loops:  append([]Loop(nil), n.Loops...),
		Body:   append([]Ref(nil), n.Body...),
	}
	out.Loops[a], out.Loops[b] = out.Loops[b], out.Loops[a]
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("loopir: interchanged nest invalid: %w", err)
	}
	return out, nil
}

// Unroll unrolls the innermost loop by the given factor: the body is
// replicated factor times with the innermost variable's occurrences
// shifted by 0, step, …, (factor−1)·step, and the loop's step multiplied
// by the factor. The innermost loop must have constant bounds and a trip
// count divisible by the factor (the transformation does not emit a
// remainder loop). Unrolling does not change the data-reference stream's
// multiset, but it shrinks the instruction-fetch stream — the I-cache
// extension's classic trade of code size for loop overhead.
func Unroll(n *Nest, factor int) (*Nest, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if factor <= 0 {
		return nil, fmt.Errorf("loopir: unroll factor %d must be positive", factor)
	}
	if factor == 1 {
		cp := *n
		return &cp, nil
	}
	inner := n.Loops[len(n.Loops)-1]
	if !inner.Lo.Expr.IsConst() || !inner.Hi.Expr.IsConst() ||
		inner.Lo.Cap != NoCap || inner.Hi.Cap != NoCap {
		return nil, fmt.Errorf("loopir: cannot unroll loop %q: bounds are not constant", inner.Var)
	}
	trip := (inner.Hi.Expr.Const-inner.Lo.Expr.Const)/inner.Step + 1
	if trip%factor != 0 {
		return nil, fmt.Errorf("loopir: trip count %d of loop %q not divisible by unroll factor %d",
			trip, inner.Var, factor)
	}
	out := &Nest{
		Name:   fmt.Sprintf("%s/unroll%d", n.Name, factor),
		Arrays: append([]Array(nil), n.Arrays...),
		Loops:  append([]Loop(nil), n.Loops...),
	}
	out.Loops[len(out.Loops)-1].Step = inner.Step * factor
	for k := 0; k < factor; k++ {
		shift := k * inner.Step
		for _, r := range n.Body {
			nr := Ref{Array: r.Array, Write: r.Write}
			for _, e := range r.Index {
				ne := e.clone()
				if c := ne.CoefOf(inner.Var); c != 0 {
					ne.Const += c * shift
				}
				nr.Index = append(nr.Index, ne)
			}
			out.Body = append(out.Body, nr)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("loopir: unrolled nest invalid: %w", err)
	}
	return out, nil
}

// Fuse merges two nests with identical loop structures into one nest that
// executes both bodies per iteration — classic loop fusion, which turns
// inter-nest reuse (the second nest re-reading what the first produced)
// into immediate temporal reuse. Arrays appearing in both nests must have
// identical declarations (they are shared); the loop variables, bounds
// and steps must match exactly.
func Fuse(a, b *Nest) (*Nest, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if len(a.Loops) != len(b.Loops) {
		return nil, fmt.Errorf("loopir: cannot fuse %q and %q: loop depths %d vs %d",
			a.Name, b.Name, len(a.Loops), len(b.Loops))
	}
	for i := range a.Loops {
		la, lb := a.Loops[i], b.Loops[i]
		if la.Var != lb.Var || la.Step != lb.Step ||
			la.Lo.String() != lb.Lo.String() || la.Hi.String() != lb.Hi.String() {
			return nil, fmt.Errorf("loopir: cannot fuse %q and %q: loop %d differs (%q vs %q)",
				a.Name, b.Name, i, la.Var, lb.Var)
		}
	}
	out := &Nest{
		Name:   a.Name + "+" + b.Name,
		Arrays: append([]Array(nil), a.Arrays...),
		Loops:  append([]Loop(nil), a.Loops...),
		Body:   append(append([]Ref(nil), a.Body...), b.Body...),
	}
	for _, arr := range b.Arrays {
		existing, ok := out.Array(arr.Name)
		if !ok {
			out.Arrays = append(out.Arrays, arr)
			continue
		}
		if existing.ElementBytes() != arr.ElementBytes() || len(existing.Dims) != len(arr.Dims) {
			return nil, fmt.Errorf("loopir: cannot fuse: array %q declared differently", arr.Name)
		}
		for d := range arr.Dims {
			if existing.Dims[d] != arr.Dims[d] {
				return nil, fmt.Errorf("loopir: cannot fuse: array %q dimensions differ", arr.Name)
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("loopir: fused nest invalid: %w", err)
	}
	return out, nil
}
