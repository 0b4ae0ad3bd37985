package cachesim

// This file implements time-partitioned sweeps (Heidelberger & Stone's
// time partitioning with a fix-up pass, applied to per-set LRU stacks):
// a later range of the reference stream runs on a Fork — the sweep's
// levels with empty stacks — concurrently with the earlier ranges, and
// Absorb stitches the finished range onto the sweep in stream order.
//
// A range is almost exact on its own. A re-touch inside the range has
// the distance it would have globally: only lines touched since the
// line's last touch count, and all of them are range lines. Only a
// line's first touch in its set can depend on earlier ranges, and only
// while the set's range-local stack has room: once it holds maxA lines,
// an untracked touch is deeper than maxA globally too. So each level
// logs at most sets × maxA cold touches per range, each with its local
// occupancy k; the stitch resolves one to the global distance
// g = k + (its index among the incoming entries the range has not yet
// touched).
//
// Write-backs need one more symbol. A line first read in a range has
// minDirty = max(M, c), where M comes from the stitch (the incoming
// entry's minDirty raised to g+1, or stackClean when untracked) and c
// is the range's running max of d+1 over its later reads. Such an entry
// carries a symbolic mark above stackClean that names its cold touch
// and holds c; a slide of a symbolic entry that ends inside the range
// is logged as a deferred credit (cold touch, c, p), settled against
// the resolved M. A symbolic slide with c > p can never credit and is
// not logged, so an entry logs at most maxA+1 of them.
//
// Every range-only step runs on separate code (accessRange, touchRange):
// a sweep that never forks walks exactly the sequential code.

import "memexplore/internal/trace"

// coldTouched is touchRange's result for a logged cold touch.
const coldTouched = -2

// coldTouch is one logged first touch of a line in its set, made while
// the set's range-local stack had room. k is the local occupancy
// before the touch; the stitch fills g (the global distance, maxA when
// untracked) and m (the resolved M of a read; unused for writes).
type coldTouch struct {
	la    uint64
	k     int32
	g     int32
	m     int32
	kc    uint8
	write bool
	span  bool
}

// spanRecord is one spanning reference with a cold touch at the level:
// its local deepest distance and the cold touches it made there.
type spanRecord struct {
	deep   int32
	lo, hi int32
	kc     uint8
}

// deferredCredit is the finished slide of a symbolic entry: it went
// from position 0 to position p with minDirty max(M of cold touch j, c).
type deferredCredit struct {
	j, c, p int32
}

// rangeLog is a forked level's record of what its range cannot resolve
// alone, plus the stitch scratch it owns.
type rangeLog struct {
	parent   *stackLevel
	cold     []coldTouch
	spans    []spanRecord
	deferred []deferredCredit
	// symK is the stride of the symbolic marks: stackClean + 1 + j*symK + c.
	symK int32
	// keepTags and keepDirty hold a set's untouched incoming entries
	// while the stitch rebuilds it.
	keepTags  []uint64
	keepDirty []int32
}

// symbolic encodes the mark of an entry whose cold touch is j and whose
// running max is c.
func (rl *rangeLog) symbolic(j, c int32) int32 { return stackClean + 1 + j*rl.symK + c }

// decode splits a symbolic mark into its cold touch and running max.
func (rl *rangeLog) decode(md int32) (j, c int32) {
	v := md - stackClean - 1
	return v / rl.symK, v % rl.symK
}

// Forkable reports whether the sweep can run in time ranges: every
// configuration has a stack level (a fallback cache cannot be
// stitched), and every level's symbolic marks fit an int32.
func (s *Sweep) Forkable() bool {
	if len(s.caches) > 0 {
		return false
	}
	for _, lv := range s.levels {
		if int64(lv.sets)*int64(lv.maxA)*int64(lv.maxA+1) >= 1<<30-1 {
			return false
		}
	}
	return true
}

// Fork returns an empty, range-local copy of the sweep, or nil when the
// sweep is not Forkable. Feed the fork a later range of the stream in
// order with AccessBlock, concurrently with the earlier ranges if need
// be, then hand it to Absorb once every earlier range is in the sweep.
// The fork is reusable after Absorb; it must not be read with Stats.
func (s *Sweep) Fork() *Sweep {
	if !s.Forkable() {
		return nil
	}
	f := &Sweep{levels: make([]*stackLevel, len(s.levels))}
	for i, lv := range s.levels {
		c := &stackLevel{lineBytes: lv.lineBytes, sets: lv.sets, offShift: lv.offShift, members: lv.members}
		if err := c.init(); err != nil {
			return nil // unreachable: the geometry already built once
		}
		c.rng = &rangeLog{parent: lv, symK: int32(c.maxA) + 1}
		f.levels[i] = c
	}
	f.whole = newSweepShard(f.levels, nil)
	f.whole.ranged = true
	for _, w := range f.whole.walks {
		w.coldLo = make([]int32, len(w.levels))
	}
	return f
}

// Absorb stitches a fork's range onto the end of the sweep's stream and
// resets the fork for reuse. Ranges must be absorbed in stream order.
func (s *Sweep) Absorb(r *Sweep) {
	for i, lv := range r.levels {
		s.levels[i].absorb(lv)
	}
	for _, w := range r.whole.walks {
		dst, src := w.levels[0].rng.parent.walk, w.state
		for k, n := range src.refs {
			dst.refs[k] += n
		}
		dst.writeTouches += src.writeTouches
		if src.hasLast {
			dst.last, dst.hasLast = src.last, true
		}
		*src = walkState{}
	}
}

// accessRange is AccessBlock for the walk of a fork: a touch that is
// cold at a level is logged there and walks on to the next level, and a
// spanning reference with a cold touch at a level leaves a span record
// instead of a histogram entry.
func (w *lineWalk) accessRange(block []trace.Ref) {
	for _, r := range block {
		first := r.Addr >> w.offShift
		last := r.LastByte() >> w.offShift
		isWrite := r.Kind == trace.Write
		k := kindClass(r.Kind)
		w.state.refs[k]++
		if first == last {
			w.touchRange(first, isWrite, k, false)
			continue
		}
		for i, lv := range w.levels {
			w.coldLo[i] = int32(len(lv.rng.cold))
		}
		visited := 0
		for la := first; la <= last; la++ {
			visited = max(visited, w.touchRange(la, isWrite, k, true))
		}
		for i, d := range w.span[:visited] {
			lv := w.levels[i]
			w.span[i] = 0
			if lo, hi := w.coldLo[i], int32(len(lv.rng.cold)); lo < hi {
				lv.rng.spans = append(lv.rng.spans, spanRecord{deep: d, lo: lo, hi: hi, kc: uint8(k)})
			} else if d > 0 {
				lv.refHist[d][k]++
			}
		}
	}
}

// touchRange is lineWalk.touch on range-local stacks.
func (w *lineWalk) touchRange(la uint64, write bool, k int, spanning bool) int {
	st := w.state
	if write {
		st.writeTouches++
	}
	if st.hasLast && la == st.last {
		if write {
			w.markDirty(0, la)
		}
		return 0
	}
	st.last, st.hasLast = la, true
	for i, lv := range w.levels {
		d := lv.touchRange(la, write, k, spanning)
		if d == 0 {
			if write {
				w.markDirty(i+1, la)
			}
			return i
		}
		if d == coldTouched {
			continue
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

// touchRange is touchBounded on a range-local stack: it returns the
// local distance, -1 for a touch deeper than maxA, or coldTouched for a
// logged cold touch. Symbolic entries defer their slide credits.
func (lv *stackLevel) touchRange(la uint64, write bool, k int, spanning bool) int {
	s, rl := &lv.stacks, lv.rng
	si := int(la & s.mask)
	base := si * s.depth
	n := int(s.occ[si])
	tags := s.tags[base : base+n]
	dirty := s.dirty[base : base+n]
	for d, t := range tags {
		if t != la {
			continue
		}
		md := dirty[d]
		if md > stackClean {
			j, c := rl.decode(md)
			if d > 0 && c <= int32(d) {
				rl.deferred = append(rl.deferred, deferredCredit{j: j, c: c, p: int32(d)})
			}
			if write {
				md = 1
			} else {
				md = rl.symbolic(j, max(c, int32(d)+1))
			}
		} else {
			s.credit(md, d)
			md = touched(md, d, write)
		}
		for j := d; j > 0; j-- {
			tags[j], dirty[j] = tags[j-1], dirty[j-1]
		}
		tags[0], dirty[0] = la, md
		return d
	}
	md, res := newMinDirty(write), -1
	if n == s.depth {
		// Full: the line is deeper than maxA globally too, and the bottom
		// entry falls off here exactly as it would in the global stack.
		if b := dirty[n-1]; b > stackClean {
			if j, c := rl.decode(b); c <= int32(n) {
				rl.deferred = append(rl.deferred, deferredCredit{j: j, c: c, p: int32(n)})
			}
		} else {
			s.credit(b, n)
		}
	} else {
		j := int32(len(rl.cold))
		rl.cold = append(rl.cold, coldTouch{la: la, k: int32(n), kc: uint8(k), write: write, span: spanning})
		if !write {
			md = rl.symbolic(j, 0)
		}
		res = coldTouched
		n++
		s.occ[si] = int32(n)
		tags, dirty = s.tags[base:base+n], s.dirty[base:base+n]
	}
	for j := n - 1; j > 0; j-- {
		tags[j], dirty[j] = tags[j-1], dirty[j-1]
	}
	tags[0], dirty[0] = la, md
	return res
}

// absorb stitches the range of src (a fork of this level) onto the
// level and resets src. Each cold touch resolves against the incoming
// stack in stream order; an incoming entry the range touches is marked
// by negating its minDirty (always ≥ 1) until its set is rebuilt.
func (lv *stackLevel) absorb(src *stackLevel) {
	s, rl, depth := &lv.stacks, src.rng, lv.maxA
	for i := range rl.cold {
		ct := &rl.cold[i]
		si := int(ct.la & s.mask)
		tags := s.tags[si*depth : si*depth+int(s.occ[si])]
		dirty := s.dirty[si*depth : si*depth+len(tags)]
		g, m := int(ct.k), stackClean
		found := false
		for p, t := range tags {
			if dirty[p] < 0 {
				continue
			}
			if t == ct.la {
				md := dirty[p]
				dirty[p] = -md
				found = true
				if g < depth {
					s.credit(md, g)
					m = max(md, int32(g)+1)
				} else {
					s.credit(md, depth) // it had fallen off before the touch
				}
				break
			}
			g++
		}
		if !found || g >= depth {
			g = depth
		}
		ct.g, ct.m = int32(g), m
		if g > 0 {
			lv.lineHist[g]++
			if !ct.span {
				lv.refHist[g][ct.kc]++
			}
		}
	}
	for _, sp := range rl.spans {
		d := sp.deep
		for _, ct := range rl.cold[sp.lo:sp.hi] {
			d = max(d, ct.g)
		}
		if d > 0 {
			lv.refHist[d][sp.kc]++
		}
	}
	for _, dc := range rl.deferred {
		s.credit(max(rl.cold[dc.j].m, dc.c), int(dc.p))
	}

	// Rebuild every set the range touched: its local stack with the
	// marks resolved, then the untouched incoming entries while their
	// position stays below maxA; the rest fall off.
	ss := &src.stacks
	for si, m := range ss.occ {
		if m == 0 {
			continue
		}
		base := si * depth
		keepT, keepD := rl.keepTags[:0], rl.keepDirty[:0]
		for p := base; p < base+int(s.occ[si]); p++ {
			if md := s.dirty[p]; md > 0 {
				keepT, keepD = append(keepT, s.tags[p]), append(keepD, md)
			}
		}
		rl.keepTags, rl.keepDirty = keepT, keepD
		copy(s.tags[base:base+int(m)], ss.tags[base:base+int(m)])
		for p := base; p < base+int(m); p++ {
			md := ss.dirty[p]
			if md > stackClean {
				j, c := rl.decode(md)
				md = max(rl.cold[j].m, c)
			}
			s.dirty[p] = md
		}
		pos := int(m)
		for q, md := range keepD {
			if pos < depth {
				s.tags[base+pos], s.dirty[base+pos] = keepT[q], md
				pos++
			} else {
				s.credit(md, depth)
			}
		}
		s.occ[si] = int32(pos)
	}

	for d := range src.refHist {
		for k, n := range src.refHist[d] {
			lv.refHist[d][k] += n
		}
		lv.lineHist[d] += src.lineHist[d]
	}
	for i, n := range ss.wbDiff {
		s.wbDiff[i] += n
	}
	ss.Reset()
	clear(src.refHist)
	clear(src.lineHist)
	rl.cold, rl.spans, rl.deferred = rl.cold[:0], rl.spans[:0], rl.deferred[:0]
}
