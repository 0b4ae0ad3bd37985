// Package layout implements the paper's §4.1 off-chip memory assignment:
// given a kernel and a cache geometry, choose base addresses and padded
// strides for the arrays so that the equivalence classes of references
// (internal/reuse) map to disjoint cache sets, eliminating conflict misses
// for compatible access patterns.
//
// The mechanism is exactly the paper's: in its Compress example (line size
// 2, cache size 8) the row containing class 2 is moved from address 32 to
// 36 — i.e. the row stride is padded from 32 to 36 bytes — so the two
// classes land two cache lines apart and "even though there is no valid
// data in locations 32 through 35 ... the conflict misses have been
// avoided".
//
// The planner works per case (classes sharing a linear part H, which
// therefore advance through the cache in lockstep) and distinguishes two
// regimes:
//
//   - Row-reuse regime: when the full per-row footprint F of the case's
//     sweep fits m rows into the cache (m·F ≤ sets), rows are spaced F
//     lines apart, preserving whole-row temporal reuse across outer-loop
//     iterations (this usually keeps the natural strides).
//   - Window regime (the paper's §3/§4.1 setting, cache smaller than a
//     row): classes are spaced by their §3 window width, the minimum that
//     keeps the concurrently-live data of different classes from
//     colliding.
//
// Classes from different cases drift relative to each other; for those the
// assignment only spreads the initial windows (best effort), which is all
// any static layout can do — the paper's complete-elimination claim is
// likewise limited to compatible patterns.
package layout

import (
	"fmt"

	"memexplore/internal/cachesim"
	"memexplore/internal/loopir"
	"memexplore/internal/reuse"
	"memexplore/internal/trace"
)

// ClassSlot records where one reference class was placed.
type ClassSlot struct {
	// Array is the array the class references.
	Array string
	// HKey identifies the class's linear part (reuse.Class.HKey).
	HKey string
	// Slot is the starting cache set assigned to the class window.
	Slot int
	// Width is the reserved window width in cache lines.
	Width int
	// StartSet is the set the class leader actually maps to under the
	// final placement.
	StartSet int
}

// Plan is the result of an assignment: the layout to generate traces with
// plus the bookkeeping needed to explain and verify it.
type Plan struct {
	// Nest is the kernel's name.
	Nest string
	// LineBytes and Sets are the cache geometry the plan targets.
	LineBytes int
	Sets      int
	// Feasible reports whether every class window received a private,
	// non-overlapping slot range. When false the plan is best-effort
	// (windows wrap around the available sets).
	Feasible bool
	// Slots describes the per-class placement.
	Slots []ClassSlot
	// Layout is the resulting array placement, ready for Nest.Generate.
	Layout loopir.Layout
	// Notes records regime decisions and best-effort fallbacks.
	Notes []string
}

func (p *Plan) notef(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// caseGroup is one equivalence case: every class that shares a linear
// part, grouped per array.
type caseGroup struct {
	hKey   string
	arrays []string // declaration order
	chains map[string][]reuse.Class
}

// Optimize computes the conflict-avoiding assignment of the nest's arrays
// for a cache with the given line size and number of sets. For a
// direct-mapped cache pass cfg.NumSets() == cfg.NumLines(). It is
// OptimizeTrace with the nest's sequential-layout trace generated here.
func Optimize(n *loopir.Nest, lineBytes, sets int) (*Plan, error) {
	plan, err := assign(n, lineBytes, sets)
	if err != nil {
		return nil, err
	}
	seq, err := n.Generate(loopir.SequentialLayout(n, 0))
	if err != nil {
		return nil, err
	}
	plan, _, err = guard(n, plan, seq)
	return plan, err
}

// OptimizeTrace is Optimize for a caller that already holds seq, the
// nest's trace under loopir.SequentialLayout(n, 0), and reuses it across
// geometries. It returns the same plan as Optimize together with the
// trace of the layout the plan chose, so the caller need not generate it
// again. The returned trace is seq itself when the sequential layout
// wins; callers must treat both as read-only.
func OptimizeTrace(n *loopir.Nest, lineBytes, sets int, seq *trace.Trace) (*Plan, *trace.Trace, error) {
	plan, err := assign(n, lineBytes, sets)
	if err != nil {
		return nil, nil, err
	}
	return guard(n, plan, seq)
}

// assign builds the analytical assignment, before the guard.
func assign(n *loopir.Nest, lineBytes, sets int) (*Plan, error) {
	if lineBytes <= 0 || sets <= 0 {
		return nil, fmt.Errorf("layout: invalid geometry: line=%d sets=%d", lineBytes, sets)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	classes, err := reuse.Classes(n)
	if err != nil {
		return nil, err
	}

	plan := &Plan{
		Nest:      n.Name,
		LineBytes: lineBytes,
		Sets:      sets,
		Feasible:  true,
		Layout:    loopir.Layout{},
	}

	cases := groupCases(n, classes)

	// Phase 1: per case, decide regime, spacing, and strides; assign slot
	// ranges off a global cursor.
	type arrayDecision struct {
		strides []int // final byte strides (nil if natural)
		slots   []int // starting slot per chain class
		widths  []int // reserved width per chain class
		chain   []reuse.Class
	}
	decisions := map[string]*arrayDecision{}
	cursor := 0
	for _, cg := range cases {
		spacing, strideAdv, F, rowsFit := caseSpacing(n, cg, lineBytes, sets)
		if rowsFit {
			plan.notef("case %s: row-reuse regime (row footprint %d lines)", describeCase(cg), F)
		}
		for _, arrName := range cg.arrays {
			chain := cg.chains[arrName]
			arr, _ := n.Array(arrName)
			dec := &arrayDecision{chain: chain}
			// Strides: pad the varying dimension (or, in lockstep cases,
			// the row dimension) so one row advances strideAdv lines.
			dec.strides = chooseStrides(n, arr, chain, strideAdv, lineBytes, sets, plan)
			for ci, c := range chain {
				w, err := c.Lines(n, lineBytes)
				if err != nil {
					return nil, err
				}
				width := spacing
				if w > width {
					width = w
				}
				dec.slots = append(dec.slots, cursor%sets)
				dec.widths = append(dec.widths, width)
				cursor += width
				_ = ci
			}
			decisions[arrName] = dec
		}
	}
	if cursor > sets {
		plan.Feasible = false
		plan.notef("need %d cache lines but the cache has only %d sets: windows wrap (conflicts not fully eliminated)", cursor, sets)
	}

	// Phase 2: place arrays in declaration order.
	watermark := uint64(0)
	for _, a := range n.Arrays {
		dec := decisions[a.Name]
		if dec == nil {
			// Declared but never referenced: natural placement.
			plan.Layout[a.Name] = loopir.Placement{Base: watermark}
			watermark += uint64(a.SizeBytes())
			continue
		}
		placement, slots := placeArray(n, a, dec.chain, dec.strides, dec.slots, dec.widths, lineBytes, sets, watermark)
		plan.Layout[a.Name] = placement
		plan.Slots = append(plan.Slots, slots...)
		watermark = placement.Base + uint64(placement.FootprintBytes(a))
	}
	return plan, nil
}

// guard is the final check: the analytical construction can lose to the
// natural packed layout when odd natural strides already skew rows across
// sets (e.g. 33-byte rows). It simulates the plan's trace and seq, the
// sequential layout's, on a direct-mapped cache of the plan's geometry and
// keeps the better placement — fewer conflicts, then fewer misses — with
// a note when the sequential layout wins. It returns the chosen plan and
// its trace. Geometries the simulator cannot model keep the plan.
func guard(n *loopir.Nest, plan *Plan, seq *trace.Trace) (*Plan, *trace.Trace, error) {
	planTr, err := n.Generate(plan.Layout)
	if err != nil {
		return nil, nil, err
	}
	cfg := cachesim.DefaultConfig(plan.Sets*plan.LineBytes, plan.LineBytes, 1)
	if cfg.Validate() != nil {
		return plan, planTr, nil
	}
	planStats, err := cachesim.RunTrace(cfg, planTr)
	if err != nil {
		return nil, nil, err
	}
	seqStats, err := cachesim.RunTrace(cfg, seq)
	if err != nil {
		return nil, nil, err
	}
	if seqStats.ConflictMisses < planStats.ConflictMisses ||
		(seqStats.ConflictMisses == planStats.ConflictMisses && seqStats.Misses < planStats.Misses) {
		out := &Plan{
			Nest:      plan.Nest,
			LineBytes: plan.LineBytes,
			Sets:      plan.Sets,
			Feasible:  plan.Feasible,
			Layout:    loopir.SequentialLayout(n, 0),
			Notes: append(append([]string(nil), plan.Notes...),
				fmt.Sprintf("natural packed layout beats the padded construction on this geometry (%d vs %d conflicts); using it",
					seqStats.ConflictMisses, planStats.ConflictMisses)),
		}
		return out, seq, nil
	}
	return plan, planTr, nil
}

// groupCases partitions classes into cases, each case listing its arrays in
// declaration order with their class chains sorted by leader constant.
func groupCases(n *loopir.Nest, classes []reuse.Class) []*caseGroup {
	byKey := map[string]*caseGroup{}
	var order []*caseGroup
	for _, c := range classes {
		cg := byKey[c.HKey]
		if cg == nil {
			cg = &caseGroup{hKey: c.HKey, chains: map[string][]reuse.Class{}}
			byKey[c.HKey] = cg
			order = append(order, cg)
		}
		cg.chains[c.Array] = append(cg.chains[c.Array], c)
	}
	for _, cg := range order {
		cg.arrays = nil
		for _, a := range n.Arrays {
			if _, ok := cg.chains[a.Name]; ok {
				cg.arrays = append(cg.arrays, a.Name)
				sortClassesByConst(cg.chains[a.Name])
			}
		}
	}
	return order
}

func describeCase(cg *caseGroup) string {
	if len(cg.arrays) == 1 {
		return cg.arrays[0]
	}
	s := cg.arrays[0]
	for _, a := range cg.arrays[1:] {
		s += "+" + a
	}
	return s
}

// caseSpacing decides the slot spacing for one case: the full row
// footprint F when the live rows fit (row-reuse regime), otherwise the §3
// window width. It also returns the per-row set advance the strides should
// realize, and whether the row-reuse regime applies.
func caseSpacing(n *loopir.Nest, cg *caseGroup, lineBytes, sets int) (spacing, strideAdv, footprint int, rowsFit bool) {
	wmax := 1
	m := 1
	F := 0
	for _, arrName := range cg.arrays {
		chain := cg.chains[arrName]
		if len(chain) > m {
			m = len(chain)
		}
		for _, c := range chain {
			if w, err := c.Lines(n, lineBytes); err == nil && w > wmax {
				wmax = w
			}
		}
		if f := sweepFootprintLines(n, chain, lineBytes); f > F {
			F = f
		}
	}
	// Live rows per chain: a class chain of m classes keeps m rows of the
	// array live at once. All of the case's arrays sweep simultaneously,
	// so the total live footprint is Σ chains · F ≈ (m+extra arrays)·F.
	live := 0
	for _, arrName := range cg.arrays {
		live += len(cg.chains[arrName])
	}
	if F >= wmax && live*F <= sets && rotationFree(F, sets, m) {
		return F, F, F, true
	}
	return wmax, wmax, F, false
}

// rotationFree checks that rows k < m apart never map to the same set
// block when rows advance F lines each: F·k ≢ 0 (mod sets) for 0 < k < m.
func rotationFree(F, sets, m int) bool {
	for k := 1; k < m; k++ {
		if (F*k)%sets == 0 {
			return false
		}
	}
	return true
}

// sweepFootprintLines estimates, in cache lines, the address span one
// class covers while the loops that do not advance the chain's varying
// dimension sweep (≈ the padded row footprint).
func sweepFootprintLines(n *loopir.Nest, chain []reuse.Class, lineBytes int) int {
	if len(chain) == 0 {
		return 1
	}
	varyDim, _ := varyingDimension(chain)
	span := 0
	for _, c := range chain {
		s := classSweepSpan(n, c, varyDim)
		if s > span {
			span = s
		}
	}
	f := (span + lineBytes - 1) / lineBytes
	if f < 1 {
		f = 1
	}
	return f
}

// classSweepSpan computes the byte span the class touches at a fixed value
// of the loops driving the varying dimension: the constant spread plus the
// travel of every loop variable that does not appear in the varying
// dimension's index expressions.
func classSweepSpan(n *loopir.Nest, c reuse.Class, varyDim int) int {
	lo := c.Members[0].Const
	hi := c.Members[len(c.Members)-1].Const
	span := hi - lo
	if span < 0 {
		span = -span
	}
	// Which loop vars drive the varying dimension?
	drivers := map[string]bool{}
	if varyDim >= 0 {
		for _, m := range c.Members {
			if varyDim < len(m.Ref.Index) {
				for v, coef := range m.Ref.Index[varyDim].Coef {
					if coef != 0 {
						drivers[v] = true
					}
				}
			}
		}
	} else if len(n.Loops) > 0 {
		// Single-class chain: treat the outermost loop with a non-zero
		// coefficient as the row driver.
		coef := c.Members[0].Coef
		for _, l := range n.Loops {
			if coef[l.Var] != 0 {
				drivers[l.Var] = true
				break
			}
		}
	}
	coef := c.Members[0].Coef
	for _, l := range n.Loops {
		k := coef[l.Var]
		if k == 0 || drivers[l.Var] {
			continue
		}
		trip := loopTravel(l)
		kk := k
		if kk < 0 {
			kk = -kk
		}
		span += kk * trip
	}
	return span + 1
}

// loopTravel returns (hi − lo) for constant bounds, or a conservative 0
// for affine bounds (tiled loops travel at most their tile, already small).
func loopTravel(l loopir.Loop) int {
	if l.Lo.Expr.IsConst() && l.Hi.Expr.IsConst() && l.Lo.Cap == loopir.NoCap && l.Hi.Cap == loopir.NoCap {
		t := l.Hi.Expr.Const - l.Lo.Expr.Const
		if t < 0 {
			t = 0
		}
		return t
	}
	return 0
}

func sortClassesByConst(chain []reuse.Class) {
	for i := 1; i < len(chain); i++ {
		for j := i; j > 0 && chain[j].Members[0].Const < chain[j-1].Members[0].Const; j-- {
			chain[j], chain[j-1] = chain[j-1], chain[j]
		}
	}
}

// chooseStrides picks the byte strides for one array: the varying (row)
// dimension is padded — if needed — so that one unit of class constant
// difference advances the cache set index by strideAdv lines.
func chooseStrides(n *loopir.Nest, a loopir.Array, chain []reuse.Class, strideAdv, lineBytes, sets int, plan *Plan) []int {
	natural := a.RowStrides()
	elem := a.ElementBytes()
	strides := make([]int, len(a.Dims))
	for d := range strides {
		strides[d] = natural[d] * elem
	}
	if len(a.Dims) < 2 {
		return nil // 1D: nothing to pad
	}
	varyDim, uniform := varyingDimension(chain)
	if len(chain) > 1 && !uniform {
		plan.notef("array %q: classes differ in more than one dimension; keeping natural strides (best effort)", a.Name)
		return nil
	}
	if varyDim < 0 {
		// Single class: pad the row dimension (outermost with rows) for
		// lockstep with the rest of the case.
		varyDim = len(a.Dims) - 2
	}
	gap := chainGap(chain, varyDim)
	padded, ok := solveStride(strides[varyDim], gap, strideAdv, lineBytes, sets)
	if !ok {
		plan.Feasible = false
		plan.notef("array %q: no stride aligns class gap %d to %d lines; keeping natural strides", a.Name, gap, strideAdv)
		return nil
	}
	if padded == strides[varyDim] {
		return nil // natural already satisfies the congruence
	}
	plan.notef("array %q: dimension %d stride padded %d → %d bytes", a.Name, varyDim, strides[varyDim], padded)
	strides[varyDim] = padded
	// Padding an inner dimension widens everything outside it: every outer
	// stride must cover the padded extent of its inner dimension.
	for d := varyDim - 1; d >= 0; d-- {
		if min := a.Dims[d+1] * strides[d+1]; strides[d] < min {
			strides[d] = min
		}
	}
	return strides
}

// initIterationEnv returns the loop environment at the first iteration of
// the nest (every loop at its lower bound).
func initIterationEnv(n *loopir.Nest) map[string]int {
	env := map[string]int{}
	for _, l := range n.Loops {
		v, err := l.Lo.Eval(env)
		if err != nil {
			v = 0
		}
		env[l.Var] = v
	}
	return env
}

// placeArray chooses the base address of one array so each chain class's
// leader — at the nest's initial iteration — lands on its assigned slot,
// and reports the realized start sets.
func placeArray(n *loopir.Nest, a loopir.Array, chain []reuse.Class, strides, slots, widths []int, lineBytes, sets int, watermark uint64) (loopir.Placement, []ClassSlot) {
	natural := a.RowStrides()
	elem := a.ElementBytes()
	eff := make([]int, len(a.Dims))
	for d := range eff {
		eff[d] = natural[d] * elem
	}
	if strides != nil {
		copy(eff, strides)
	}

	// Leader byte offset of each class at the initial iteration under the
	// effective strides: H·ī₀ + min constant offset. Evaluating at ī₀
	// line-aligns the actual first window, not just the constant part.
	env := initIterationEnv(n)
	leaderOffsets := make([]int, len(chain))
	for ci, c := range chain {
		lo := 0
		first := true
		for _, m := range c.Members {
			off := 0
			for d, e := range m.Ref.Index {
				v, err := e.Eval(env)
				if err != nil {
					v = e.Const
				}
				off += v * eff[d]
			}
			if first || off < lo {
				lo = off
				first = false
			}
		}
		leaderOffsets[ci] = lo
	}

	period := int64(sets * lineBytes)
	target := int64(slots[0] * lineBytes)
	minBase := int64(watermark)
	if lo := int64(leaderOffsets[0]); lo < 0 && -lo > minBase {
		minBase = -lo
	}
	residue := (target - int64(leaderOffsets[0])) % period
	if residue < 0 {
		residue += period
	}
	base := residue
	if base < minBase {
		base += ((minBase - base + period - 1) / period) * period
	}

	placement := loopir.Placement{Base: uint64(base), StrideBytes: strides}
	out := make([]ClassSlot, 0, len(chain))
	for ci, c := range chain {
		abs := base + int64(leaderOffsets[ci])
		startSet := int((abs / int64(lineBytes)) % int64(sets))
		out = append(out, ClassSlot{
			Array:    c.Array,
			HKey:     c.HKey,
			Slot:     slots[ci],
			Width:    widths[ci],
			StartSet: startSet,
		})
	}
	return placement, out
}

// varyingDimension returns the single outer dimension in which the chain's
// class constants differ, and whether at most one such dimension exists.
// Chains of length ≤ 1 report (-1, true).
func varyingDimension(chain []reuse.Class) (int, bool) {
	if len(chain) <= 1 {
		return -1, true
	}
	ref := chain[0].Members[0].DimConsts
	vary := -1
	for _, c := range chain[1:] {
		dc := c.Members[0].DimConsts
		for d := 0; d < len(ref)-1; d++ { // outer dims only
			if dc[d] != ref[d] {
				if vary != -1 && vary != d {
					return -1, false
				}
				vary = d
			}
		}
	}
	if vary == -1 {
		return -1, false
	}
	return vary, true
}

// chainGap returns the smallest positive difference of the varying
// dimension's constants between adjacent classes of the chain (1 for
// chains without a varying dimension).
func chainGap(chain []reuse.Class, dim int) int {
	if dim < 0 {
		return 1
	}
	gap := 0
	for i := 1; i < len(chain); i++ {
		d := chain[i].Members[0].DimConsts[dim] - chain[i-1].Members[0].DimConsts[dim]
		if d < 0 {
			d = -d
		}
		if gap == 0 || (d != 0 && d < gap) {
			gap = d
		}
	}
	if gap == 0 {
		gap = 1
	}
	return gap
}

// solveStride finds the smallest stride ≥ natural that is a multiple of the
// line size and satisfies (stride·gap/L) ≡ strideAdv (mod sets).
func solveStride(natural, gap, strideAdv, lineBytes, sets int) (int, bool) {
	start := ((natural + lineBytes - 1) / lineBytes) * lineBytes
	want := strideAdv % sets
	for k := 0; k <= sets; k++ {
		stride := start + k*lineBytes
		if (stride/lineBytes*gap)%sets == want {
			return stride, true
		}
	}
	return 0, false
}

// Violation reports two same-case class windows that overlap in the cache.
type Violation struct {
	A, B ClassSlot
}

// Verify checks that within every case (classes sharing a linear part) the
// placed windows are pairwise disjoint modulo the number of sets. It
// returns the overlaps found; a feasible plan for a compatible kernel must
// return none.
func (p *Plan) Verify() []Violation {
	byCase := map[string][]ClassSlot{}
	for _, s := range p.Slots {
		byCase[s.HKey] = append(byCase[s.HKey], s)
	}
	var out []Violation
	for _, slots := range byCase {
		for i := 0; i < len(slots); i++ {
			for j := i + 1; j < len(slots); j++ {
				if windowsOverlap(slots[i], slots[j], p.Sets) {
					out = append(out, Violation{A: slots[i], B: slots[j]})
				}
			}
		}
	}
	return out
}

// windowsOverlap tests circular interval overlap of [a.StartSet,
// a.StartSet+a.Width) and [b.StartSet, b.StartSet+b.Width) modulo sets.
func windowsOverlap(a, b ClassSlot, sets int) bool {
	if a.Width >= sets || b.Width >= sets {
		return true
	}
	d := ((b.StartSet-a.StartSet)%sets + sets) % sets
	return d < a.Width || sets-d < b.Width
}
