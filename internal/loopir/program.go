package loopir

import (
	"fmt"
	"math"
	"slices"

	"memexplore/internal/trace"
)

// Program is a nest compiled once for trace generation: validated,
// lowered to the executor form, its references counted, and every body
// index checked once against its array's extent over the whole iteration
// space by interval arithmetic. Generating under a layout folds each
// body reference into one affine address function of the loop variables
// — an address constant plus one coefficient per loop level — keeps its
// partial sums per loop level, and lets the innermost loop advance every
// address by a constant delta: no index is evaluated or bounds-checked
// per reference. A nest the intervals cannot prove in range generates
// through the checked evaluator instead, which reports the first
// out-of-range reference exactly as Nest.Generate always has. A Program
// is immutable, so concurrent goroutines may generate from one.
type Program struct {
	nest  *Nest
	loops []cLoop
	body  [][]cExpr
	kinds []trace.Kind // per body reference
	refs  int64        // references a generation emits; a capacity hint when unproven
	// proven reports that no body index can leave its array's extent,
	// nor any bound or loop variable overflow, at any iteration.
	proven bool
}

// Compile validates n and compiles it for generation. The program
// keeps n, which must not change afterwards.
func (n *Nest) Compile() (*Program, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	loops, body := n.compileExec()
	p := &Program{nest: n, loops: loops, body: body, kinds: make([]trace.Kind, len(n.Body))}
	for bi, r := range n.Body {
		if r.Write {
			p.kinds[bi] = trace.Write
		}
	}
	p.refs = iterations(loops) * int64(len(body))
	p.proven = p.prove()
	return p, nil
}

// interval is the closed range [lo, hi] of an int-valued quantity.
type interval struct{ lo, hi int }

// prove reports whether every body index stays inside its array's
// extent at every iteration: each index expression's interval over the
// loop ranges must lie inside the extent. Any overflow along the way
// leaves the nest unproven, so the proof also guarantees that the
// checked evaluator's wrapping int arithmetic computes true values.
func (p *Program) prove() bool {
	ranges, ok := loopRanges(p.loops)
	if !ok {
		return false
	}
	if ranges == nil {
		return true // some level never runs: no reference is issued
	}
	for bi, idx := range p.body {
		a, _ := p.nest.Array(p.nest.Body[bi].Array)
		for d := range idx {
			iv, ok := idx[d].interval(ranges)
			if !ok || iv.lo < 0 || iv.hi >= a.Dims[d] {
				return false
			}
		}
	}
	return true
}

// loopRanges returns the interval each loop variable ranges over: from
// its lower bound's least to its upper bound's greatest value, min caps
// included. ok is false when a bound, a trip count or the step past a
// loop's last iteration can overflow; the ranges are nil when some level
// can never run.
func loopRanges(loops []cLoop) (ranges []interval, ok bool) {
	ranges = make([]interval, len(loops))
	for d := range loops {
		l := &loops[d]
		lo, okLo := l.lo.interval(ranges)
		hi, okHi := l.hi.interval(ranges)
		if !okLo || !okHi || hi.hi > math.MaxInt-l.step {
			return nil, false
		}
		if _, ok := subInt(hi.hi, lo.lo); !ok {
			return nil, false
		}
		if lo.lo > hi.hi {
			return nil, true
		}
		ranges[d] = interval{lo.lo, hi.hi}
	}
	return ranges, true
}

// interval returns the range of the expression, cap included, when its
// slots range over ranges, or false if computing it overflows.
func (e *cExpr) interval(ranges []interval) (interval, bool) {
	iv := interval{e.cnst, e.cnst}
	for _, t := range e.terms {
		r := ranges[t.slot]
		a, okA := mulInt(t.coef, r.lo)
		b, okB := mulInt(t.coef, r.hi)
		if !okA || !okB {
			return interval{}, false
		}
		if a > b {
			a, b = b, a
		}
		if iv.lo, okA = addInt(iv.lo, a); !okA {
			return interval{}, false
		}
		if iv.hi, okB = addInt(iv.hi, b); !okB {
			return interval{}, false
		}
	}
	iv.lo, iv.hi = min(iv.lo, e.cap), min(iv.hi, e.cap)
	return iv, true
}

func addInt(a, b int) (int, bool) {
	c := a + b
	return c, (c > a) == (b > 0)
}

func subInt(a, b int) (int, bool) {
	c := a - b
	return c, (c < a) == (b > 0)
}

func mulInt(a, b int) (int, bool) {
	c := a * b
	if a != 0 && (c/a != b || (a == -1 && b == math.MinInt)) {
		return 0, false
	}
	return c, true
}

// placedArray is one body reference's array resolved under a layout.
type placedArray struct {
	base    uint64
	dims    []int
	strides []int // bytes per index step, per dimension
	elem    int
}

// place resolves the layout for every body reference, rejecting a
// missing array, a wrong stride count and overlapping strides.
func (p *Program) place(layout Layout) ([]placedArray, error) {
	n := p.nest
	arrays := make(map[string]placedArray, len(n.Arrays))
	for _, a := range n.Arrays {
		pl, ok := layout[a.Name]
		if !ok {
			return nil, fmt.Errorf("loopir: layout for nest %q is missing array %q", n.Name, a.Name)
		}
		strides := a.RowStrides()
		elem := a.ElementBytes()
		byteStrides := make([]int, len(strides))
		for d := range strides {
			byteStrides[d] = strides[d] * elem
		}
		if pl.StrideBytes != nil {
			if len(pl.StrideBytes) != len(a.Dims) {
				return nil, fmt.Errorf("loopir: placement of %q has %d strides, array has %d dims",
					a.Name, len(pl.StrideBytes), len(a.Dims))
			}
			// Strides must not make distinct elements overlap: from the
			// innermost dimension outward, each stride must cover the
			// whole (possibly padded) extent of the next inner dimension.
			minStride := elem
			for d := len(a.Dims) - 1; d >= 0; d-- {
				s := pl.StrideBytes[d]
				if s < minStride {
					return nil, fmt.Errorf("loopir: placement of %q: stride %d of dimension %d is below the minimum %d (elements would overlap)",
						a.Name, s, d, minStride)
				}
				byteStrides[d] = s
				minStride = s * a.Dims[d]
			}
		}
		arrays[a.Name] = placedArray{base: pl.Base, dims: a.Dims, strides: byteStrides, elem: elem}
	}
	out := make([]placedArray, len(n.Body))
	for bi, r := range n.Body {
		out[bi] = arrays[r.Array]
	}
	return out, nil
}

// Generate returns the nest's trace under layout.
func (p *Program) Generate(layout Layout) (*trace.Trace, error) {
	refs, err := p.AppendTrace(make([]trace.Ref, 0, p.refs), layout)
	if err != nil {
		return nil, err
	}
	return trace.FromRefs(refs), nil
}

// AppendTrace appends the nest's references under layout to dst and
// returns the extended slice, growing it at most once. On error it
// returns dst with its original length.
func (p *Program) AppendTrace(dst []trace.Ref, layout Layout) ([]trace.Ref, error) {
	arrs, err := p.place(layout)
	if err != nil {
		return dst, err
	}
	if !p.proven {
		return p.appendChecked(dst, arrs)
	}
	return p.appendFolded(dst, arrs), nil
}

// appendChecked is the checked evaluator: it evaluates every index of
// every reference and bounds-checks it, stopping at the first reference
// out of range. It is the slow path for unproven nests and the oracle
// the folded generator is tested against.
func (p *Program) appendChecked(dst []trace.Ref, arrs []placedArray) ([]trace.Ref, error) {
	n0 := len(dst)
	dst = slices.Grow(dst, int(p.refs))
	err := visitIndexed(p.loops, p.body, func(bi int, idx []int) error {
		ca := &arrs[bi]
		off := 0
		for d, v := range idx {
			if v < 0 || v >= ca.dims[d] {
				return fmt.Errorf("loopir: nest %q ref %s: index %d out of range [0,%d) in dimension %d",
					p.nest.Name, p.nest.Body[bi], v, ca.dims[d], d)
			}
			off += v * ca.strides[d]
		}
		dst = append(dst, trace.Ref{Addr: ca.base + uint64(off), Kind: p.kinds[bi], Size: uint8(ca.elem)})
		return nil
	})
	if err != nil {
		return dst[:n0], err
	}
	return dst, nil
}

// folded is a proven nest's generation state under one layout. Body
// reference bi's address is acc[bi] + Σ_l coef[l·nb+bi]·v_l modulo 2^64:
// the fold of base + Σ_d stride_d·index_d, which is how the checked
// evaluator's base + uint64(off) wraps too.
type folded struct {
	loops []cLoop
	env   []int
	nb    int
	coef  []uint64    // per loop level, per body reference
	acc   []uint64    // partial sums: level l's before its variable is added
	tmpl  []trace.Ref // kind and size per body reference
	dst   []trace.Ref
}

// appendFolded generates a proven nest by strength reduction.
func (p *Program) appendFolded(dst []trace.Ref, arrs []placedArray) []trace.Ref {
	if p.refs == 0 {
		return dst
	}
	depth, nb := len(p.loops), len(p.body)
	g := &folded{
		loops: p.loops,
		env:   make([]int, depth),
		nb:    nb,
		coef:  make([]uint64, depth*nb),
		acc:   make([]uint64, (depth+1)*nb),
		tmpl:  make([]trace.Ref, nb),
		dst:   slices.Grow(dst, int(p.refs)),
	}
	for bi, idx := range p.body {
		ca := &arrs[bi]
		addr := ca.base
		for d := range idx {
			s := uint64(ca.strides[d])
			addr += s * uint64(idx[d].cnst)
			for _, t := range idx[d].terms {
				g.coef[t.slot*nb+bi] += s * uint64(t.coef)
			}
		}
		g.acc[bi] = addr
		g.tmpl[bi] = trace.Ref{Kind: p.kinds[bi], Size: uint8(ca.elem)}
	}
	g.run(0)
	return g.dst
}

// run executes loop level l: it sets level l+1's partial sums from
// level l's and advances them by coef·step per iteration; the innermost
// level advances each address by that constant delta as it emits.
func (g *folded) run(l int) {
	lp := &g.loops[l]
	lo, hi := lp.lo.eval(g.env), lp.hi.eval(g.env)
	if hi < lo {
		return
	}
	nb, step := g.nb, uint64(lp.step)
	coef := g.coef[l*nb : (l+1)*nb]
	in, out := g.acc[l*nb:(l+1)*nb], g.acc[(l+1)*nb:(l+2)*nb]
	for bi := range out {
		out[bi] = in[bi] + coef[bi]*uint64(lo)
	}
	if l == len(g.loops)-1 {
		// The innermost loop: out holds the first iteration's addresses.
		n0 := len(g.dst)
		g.dst = g.dst[:n0+((hi-lo)/lp.step+1)*nb]
		seg := g.dst[n0:]
		for bi, r := range g.tmpl {
			addr, d := out[bi], coef[bi]*step
			for k := bi; k < len(seg); k += nb {
				r.Addr = addr
				seg[k] = r
				addr += d
			}
		}
		return
	}
	for v := lo; v <= hi; v += lp.step {
		g.env[l] = v
		g.run(l + 1)
		for bi := range out {
			out[bi] += coef[bi] * step
		}
	}
}
