package cachesim

import (
	"fmt"
	"slices"
	"sort"

	"memexplore/internal/trace"
)

// This file implements the inclusion sweep engine: a Sweep gives every
// inclusion-eligible (LineBytes, NumSets) geometry of a batch of cache
// configurations one stack level — per-set LRU stacks (PerSetStacks,
// lrustack.go) whose distance histograms yield the exact Stats of every
// associativity of the geometry at once — and simulates the rest (FIFO
// and random replacement, no-write-allocate, victim buffers) on one
// fallback Cache each. The levels of one line size are driven by one
// walk per line touch (lineWalk). The combined results are bit-identical
// to simulating every configuration individually with New.

// InclusionEligible reports whether the inclusion engine can simulate the
// configuration exactly: LRU replacement with write-allocate, no victim
// buffer (DefaultConfig's policies) and no 3C classification. Both
// write-back and write-through caches qualify — the write policy changes
// traffic accounting, never which lines are resident.
func InclusionEligible(cfg Config) bool {
	return cfg.Replacement == LRU && cfg.WriteAllocate && cfg.VictimLines == 0 && !cfg.Classify
}

// sweepSlot maps one input configuration to where its statistics live:
// member `member` of stack level `group`, or — when group is -1 —
// fallback cache `member`.
type sweepSlot struct {
	group  int
	member int
}

// groupMember is one configuration of a stack level; only the
// associativity and the write policy distinguish members.
type groupMember struct {
	assoc     int
	writeBack bool
}

// walkState is the stream state shared by every level one walk drives:
// what a level needs to know about the references it never recorded.
type walkState struct {
	// refs counts references by kind class (Read/Write/Fetch/other).
	refs [4]uint64
	// writeTouches counts write line-touches — the write-through
	// traffic, which depends on neither associativity nor set count
	// (hit, refill and spanning writes all go through).
	writeTouches uint64
	// last is the line the walk touched most recently (when hasLast):
	// it is the most recent line of its set at every level.
	last    uint64
	hasLast bool
}

// stackLevel is one inclusion group: the per-set stacks of one
// (LineBytes, NumSets) geometry, serving every member associativity.
// It records only touches at a nonzero distance; a reference at
// distance 0 hits every member, so the hits are the walk's reference
// totals minus the recorded misses.
type stackLevel struct {
	lineBytes int
	sets      int
	offShift  uint
	maxA      int // largest member associativity; also the stack depth
	members   []groupMember

	stacks PerSetStacks
	// refHist[D][k] counts references of kind class k whose deepest
	// spanned line-touch had stack distance D ≥ 1; bucket maxA collects
	// references with an untracked touch (cold or deeper than every
	// member). A reference hits the A-way cache iff D < A — a spanning
	// reference hits only if every spanned line hits.
	refHist [][4]uint64
	// lineHist[d] counts line touches at distance d ≥ 1 (bucket maxA as
	// above): the A-way cache fetches exactly the touches with d ≥ A.
	lineHist []uint64
	// walk is the state of the walk currently driving the level.
	walk *walkState
	// rng is the range log of a forked level (ranges.go); nil otherwise.
	rng *rangeLog
}

// init sizes the stacks and histograms once all members are known.
func (lv *stackLevel) init() error {
	for _, m := range lv.members {
		lv.maxA = max(lv.maxA, m.assoc)
	}
	st, err := NewPerSetStacks(lv.sets, lv.maxA)
	if err != nil {
		return err
	}
	lv.stacks = *st
	lv.refHist = make([][4]uint64, lv.maxA+1)
	lv.lineHist = make([]uint64, lv.maxA+1)
	return nil
}

// kindClass maps a reference kind to its histogram column; unknown
// kinds count toward Accesses/Hits/Misses only.
func kindClass(k trace.Kind) int {
	if k > trace.Fetch {
		return 3
	}
	return int(k)
}

// statsFor derives the exact Stats of one member from the level's
// histograms and its walk's totals, matching an unclassified Cache field
// for field (every miss counts as a capacity miss, victim and
// compulsory counters stay zero). wb is the
// settled write-back column (PerSetStacks.Writebacks), needed only for
// write-back members.
func (lv *stackLevel) statsFor(m groupMember, wb []uint64) Stats {
	ws := lv.walk
	st := Stats{Reads: ws.refs[0], Writes: ws.refs[1], Fetches: ws.refs[2]}
	st.Accesses = st.Reads + st.Writes + st.Fetches + ws.refs[3]
	for d := m.assoc; d <= lv.maxA; d++ {
		kc := lv.refHist[d]
		st.Misses += kc[0] + kc[1] + kc[2] + kc[3]
		st.ReadMisses += kc[0]
		st.WriteMisses += kc[1]
		st.LinesFetched += lv.lineHist[d]
	}
	st.Hits = st.Accesses - st.Misses
	st.ReadHits = st.Reads - st.ReadMisses
	st.WriteHits = st.Writes - st.WriteMisses
	st.CapacityMisses = st.Misses
	if m.writeBack {
		st.WriteBacks = wb[m.assoc]
	} else {
		st.WriteThroughs = ws.writeTouches
	}
	return st
}

// Reset clears the level's stacks, histograms and walk totals.
func (lv *stackLevel) Reset() {
	lv.stacks.Reset()
	clear(lv.refHist)
	clear(lv.lineHist)
	*lv.walk = walkState{}
}

// lineWalk drives the stack levels of one line size in ascending set
// count. Under bit-selection indexing each set at 2S sets holds a subset
// of the lines of one set at S sets, so a line that is the most recent
// of its set at one level is the most recent of its set at every later
// level: a touch at distance 0 at level i is at distance 0 at every
// level after i, where it moves no stack entry and credits no
// write-back. The walk stops there. Levels record only nonzero
// distances, so the skipped touches are already accounted for by the
// walk's totals; a skipped write only marks the top entry dirty.
type lineWalk struct {
	offShift uint
	levels   []*stackLevel
	state    *walkState
	// span[i] is the deepest distance at levels[i] of the spanning
	// reference in progress; zero between references.
	span []int32
	// coldLo[i] is the cold-touch count of levels[i] when the spanning
	// reference in progress began (forks only).
	coldLo []int32
}

// newLineWalk builds the walk over levels of one line size, which it
// orders by set count. The walk continues from the state of the walk
// that drove the levels before (fresh levels start from zero), so a
// sweep can be re-sharded without losing its totals.
func newLineWalk(levels []*stackLevel) *lineWalk {
	sort.SliceStable(levels, func(i, j int) bool { return levels[i].sets < levels[j].sets })
	w := &lineWalk{offShift: levels[0].offShift, levels: levels, state: &walkState{}, span: make([]int32, len(levels))}
	if prev := levels[0].walk; prev != nil {
		*w.state = *prev
	}
	for _, lv := range levels {
		lv.walk = w.state
	}
	return w
}

// AccessBlock streams a block of references through the walk's levels.
func (w *lineWalk) AccessBlock(block []trace.Ref) {
	for _, r := range block {
		first := r.Addr >> w.offShift
		last := r.LastByte() >> w.offShift
		isWrite := r.Kind == trace.Write
		k := kindClass(r.Kind)
		w.state.refs[k]++
		if first == last {
			w.touch(first, isWrite, k, false)
			continue
		}
		visited := 0
		for la := first; la <= last; la++ {
			visited = max(visited, w.touch(la, isWrite, k, true))
		}
		for i, d := range w.span[:visited] {
			if d > 0 {
				w.levels[i].refHist[d][k]++
				w.span[i] = 0
			}
		}
	}
}

// touch walks one line touch up the levels and returns how many it
// visited; the line is at distance 0 at every level after those. The
// touch of a non-spanning reference records the reference's distance
// directly; a spanning reference's deepest distance per level is
// gathered in span.
func (w *lineWalk) touch(la uint64, write bool, k int, spanning bool) int {
	st := w.state
	if write {
		st.writeTouches++
	}
	if st.hasLast && la == st.last {
		// The walk's previous touch: distance 0 everywhere.
		if write {
			w.markDirty(0, la)
		}
		return 0
	}
	st.last, st.hasLast = la, true
	for i, lv := range w.levels {
		d := lv.stacks.touchBounded(la, write)
		if d == 0 {
			if write {
				w.markDirty(i+1, la)
			}
			return i
		}
		if d < 0 {
			d = lv.maxA
		}
		lv.lineHist[d]++
		if spanning {
			w.span[i] = max(w.span[i], int32(d))
		} else {
			lv.refHist[d][k]++
		}
	}
	return len(w.levels)
}

// markDirty records a write to la at levels[from:], where la is the
// most recent line of its set. A line dirty at every associativity of
// one level is so at every later level (each of its sets sees a subset
// of the same touches), so the marking stops at the first level where
// the line already was.
func (w *lineWalk) markDirty(from int, la uint64) {
	for _, lv := range w.levels[from:] {
		if lv.stacks.markTopDirty(la) {
			return
		}
	}
}

// CancelCheckInterval is how many references a trace pass feeds to a
// sweep between context checks: a canceled context stops a running pass
// within one interval.
const CancelCheckInterval = 8192

// Relative per-reference cost weights of the two pass-unit kinds. They
// only steer shard balance (never correctness): a stack level's touch
// scans a per-set list of up to maxA entries, a fallback cache probe is
// an indexed compare plus a bounded way scan.
const (
	levelUnitBaseWeight = 4
	cacheUnitWeight     = 3
)

// PassUnit is one of the independent simulation state machines a Sweep
// runs: a stack level, serving every inclusion-eligible configuration of
// one (LineBytes, NumSets) geometry, or a fallback cache, serving one
// other configuration.
type PassUnit struct {
	// Level reports a stack level; otherwise the unit is a fallback cache.
	Level bool
	// Configs are the indices of the configurations the unit serves, in
	// ascending order.
	Configs []int
	// Weight is the unit's estimated per-reference cost: 4 plus the
	// level's largest associativity, or 3 for a fallback cache.
	Weight int
}

// PassUnitsOf lists the pass units NewSweep builds for cfgs, in
// canonical order: one stack level per (LineBytes, NumSets) geometry of
// the inclusion-eligible configurations (see InclusionEligible), in order
// of first appearance, then one fallback cache per other configuration,
// in configuration order. It validates cfgs and builds no simulator
// state, so plans and shard partitions are derived from the
// configurations alone.
func PassUnitsOf(cfgs []Config) ([]PassUnit, error) {
	// Options.Plan calls this once per workload group of every request,
	// so it makes two allocations: units, and buf, which holds level
	// (each configuration's level, -1 for a fallback cache) and members
	// (the backing of every unit's Configs: the levels' members in level
	// order, then one index per fallback cache). geoms, the levels'
	// geometries, starts on the stack.
	type geom struct{ lineBytes, sets int }
	var geomBuf [16]geom
	geoms := geomBuf[:0]
	units := make([]PassUnit, 0, len(cfgs))
	buf := make([]int, 2*len(cfgs))
	level, members := buf[:len(cfgs)], buf[len(cfgs):len(cfgs)]
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("cachesim: sweep config %d: %w", i, err)
		}
		level[i] = -1
		if !InclusionEligible(cfg) {
			continue
		}
		g := geom{cfg.LineBytes, cfg.NumSets()}
		li := slices.Index(geoms, g)
		if li < 0 {
			li = len(units)
			geoms = append(geoms, g)
			units = append(units, PassUnit{Level: true, Weight: levelUnitBaseWeight})
		}
		level[i] = li
		units[li].Weight = max(units[li].Weight, levelUnitBaseWeight+cfg.Assoc)
	}
	for li := range units {
		start := len(members)
		for i, l := range level {
			if l == li {
				members = append(members, i)
			}
		}
		units[li].Configs = members[start:len(members):len(members)]
	}
	for i, l := range level {
		if l < 0 {
			members = append(members, i)
			units = append(units, PassUnit{Configs: members[len(members)-1 : len(members) : len(members)], Weight: cacheUnitWeight})
		}
	}
	return units, nil
}

// Sweep simulates many cache configurations in a single pass over a
// trace — the Dinero IV trick: the trace is read once and fanned out to
// every simulator. It collapses the associativity dimension of every
// inclusion-eligible (LineBytes, NumSets) geometry into one stack level,
// walks the levels of each line size together, and simulates every other
// configuration on its own fallback cache, classifying its misses when
// its Config.Classify is set. Statistics are bit-identical to
// per-configuration simulation with New.
type Sweep struct {
	units  []PassUnit    // PassUnitsOf the configurations
	levels []*stackLevel // the units' stack levels, in unit order
	caches []*Cache      // the units' fallback caches, in unit order
	slots  []sweepSlot
	whole  *SweepShard // every pass unit: the AccessBlock traversal
}

// NewSweep builds a sweep over the configurations: one stack level or
// fallback cache per pass unit (see PassUnitsOf).
func NewSweep(cfgs []Config) (*Sweep, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesim: sweep needs at least one configuration")
	}
	units, err := PassUnitsOf(cfgs)
	if err != nil {
		return nil, err
	}
	s := &Sweep{units: units, slots: make([]sweepSlot, len(cfgs))}
	for _, u := range units {
		first := cfgs[u.Configs[0]]
		if !u.Level {
			c, err := New(first)
			if err != nil {
				return nil, err
			}
			s.slots[u.Configs[0]] = sweepSlot{group: -1, member: len(s.caches)}
			s.caches = append(s.caches, c)
			continue
		}
		lv := &stackLevel{lineBytes: first.LineBytes, sets: first.NumSets(), offShift: uint(first.OffsetBits())}
		for _, ci := range u.Configs {
			s.slots[ci] = sweepSlot{group: len(s.levels), member: len(lv.members)}
			lv.members = append(lv.members, groupMember{assoc: cfgs[ci].Assoc, writeBack: cfgs[ci].WriteBack})
		}
		if err := lv.init(); err != nil {
			return nil, err
		}
		s.levels = append(s.levels, lv)
	}
	s.whole = newSweepShard(s.levels, s.caches)
	return s, nil
}

// PassUnits returns the number of independent simulation state machines
// consuming the trace: one per stack level plus one per fallback cache.
// Configurations per pass unit is the engine's collapse factor.
func (s *Sweep) PassUnits() int { return len(s.levels) + len(s.caches) }

// AccessBlock feeds a block of references to every line-size walk and
// fallback cache, each consuming the whole block before the next runs,
// so each simulator's state stays resident instead of every reference
// fanning out across all of them. It is the chunk-granular entry point
// for streaming callers; statistics are identical in any chunking.
func (s *Sweep) AccessBlock(block []trace.Ref) {
	s.whole.AccessBlock(block)
}

// Stats returns the per-configuration statistics in input order.
func (s *Sweep) Stats() []Stats {
	wbs := make([][]uint64, len(s.levels))
	out := make([]Stats, len(s.slots))
	for i, sl := range s.slots {
		if sl.group < 0 {
			out[i] = s.caches[sl.member].Stats()
			continue
		}
		lv := s.levels[sl.group]
		m := lv.members[sl.member]
		if m.writeBack && wbs[sl.group] == nil {
			wbs[sl.group] = lv.stacks.Writebacks()
		}
		out[i] = lv.statsFor(m, wbs[sl.group])
	}
	return out
}

// Reset clears every level and fallback cache.
func (s *Sweep) Reset() {
	for _, lv := range s.levels {
		lv.Reset()
	}
	for _, c := range s.caches {
		c.Reset()
	}
}

// Release returns the fallback caches' backing arrays to the package
// pool for reuse by later sweeps. Call after the final Stats(); the
// sweep must not be used afterwards.
func (s *Sweep) Release() {
	for _, c := range s.caches {
		c.release()
	}
	s.units, s.levels, s.caches, s.slots, s.whole = nil, nil, nil, nil, nil
}
