package cachesim

import "fmt"

// This file implements the shared per-set LRU stack core behind the
// inclusion engine (inclusion.go) and stackdist.ComputePerSet.
//
// By Mattson's inclusion property, the content of an A-way LRU set is
// always the top min(occupancy, A) entries of the set's LRU stack, so one
// stack holds the state of every associativity of a (line size, set
// count) geometry at once: an access at stack distance d hits every cache
// with A > d and misses (and refills in) every cache with A ≤ d.
//
// Write-back traffic is derived with the Cheetah-style "dirty level"
// trick: each entry keeps minDirty, the smallest associativity at which
// the line is dirty. Dirtiness is monotone in A — a write hit at distance
// d leaves the line dirty in the caches that held it (A > d) AND in the
// caches that just refilled it on the write miss (A ≤ d, write-allocate)
// so minDirty becomes 1, while a read at distance d refills a clean copy
// in every A ≤ d, raising minDirty to max(minDirty, d+1).
//
// minDirty only changes when its entry is touched, and between two
// touches the entry slides from position 0 down to some position p: the
// a-way cache evicts it on the slide from a-1 to a, so it was written
// back by exactly the caches with minDirty ≤ a ≤ p. That range is
// credited once, through a difference array over associativities, when
// the entry is touched again or falls off the bottom of a bounded stack;
// the entries still resident hold their range pending until the counts
// are read (Writebacks settles them). A touch at distance 0 therefore
// credits nothing and moves nothing.

// stackEntry is one line in an unbounded per-set LRU stack.
type stackEntry struct {
	la uint64
	// minDirty is the smallest associativity at which the line is dirty
	// under write-back, write-allocate semantics (dirtiness is monotone:
	// dirty at a implies dirty at every a' ≥ a while resident).
	// stackClean marks a line clean at every associativity.
	minDirty int32
}

// stackClean is the minDirty sentinel for "clean everywhere": larger than
// any real associativity, so minDirty ≤ a never holds.
const stackClean = int32(1) << 30

// PerSetStacks maintains per-set LRU stacks with dirty-depth markers over
// a stream of line-address touches. Depth-bounded stacks back the
// inclusion sweep engine (entries deeper than every tracked associativity
// are indistinguishable from cold and are dropped); unbounded stacks back
// stackdist.ComputePerSet, which needs exact distances at any depth.
// It is not safe for concurrent use.
type PerSetStacks struct {
	sets  int
	depth int // maximum tracked entries per set; 0 = unbounded
	mask  uint64

	// Bounded mode: set i occupies tags[i*depth : i*depth+occ[i]], most
	// recent first, and the same span of dirty holds each entry's
	// minDirty.
	tags  []uint64
	dirty []int32
	occ   []int32

	// Unbounded mode: one growable stack per set.
	dyn [][]stackEntry

	// wbDiff is a difference array over associativities: the write-backs
	// credited to an a-way cache are wbDiff[1] + … + wbDiff[a] (modular,
	// so the decrements need no sign). Grown on demand in unbounded mode.
	wbDiff []uint64
}

// NewPerSetStacks builds stacks for a power-of-two set count. depth bounds
// the tracked entries per set (the largest associativity of interest);
// depth 0 keeps every entry.
func NewPerSetStacks(sets, depth int) (*PerSetStacks, error) {
	if !isPow2(sets) {
		return nil, fmt.Errorf("cachesim: set count %d is not a positive power of two", sets)
	}
	if depth < 0 {
		return nil, fmt.Errorf("cachesim: negative stack depth %d", depth)
	}
	s := &PerSetStacks{sets: sets, depth: depth, mask: uint64(sets - 1)}
	if depth > 0 {
		s.tags = make([]uint64, sets*depth)
		s.dirty = make([]int32, sets*depth)
		s.occ = make([]int32, sets)
		s.wbDiff = make([]uint64, depth+2)
	} else {
		s.dyn = make([][]stackEntry, sets)
		s.wbDiff = make([]uint64, 2)
	}
	return s, nil
}

// Sets returns the set count.
func (s *PerSetStacks) Sets() int { return s.sets }

// Depth returns the per-set entry bound (0 = unbounded).
func (s *PerSetStacks) Depth() int { return s.depth }

// Occupancy returns the number of entries currently tracked for the set.
func (s *PerSetStacks) Occupancy(set int) int {
	if s.depth > 0 {
		return int(s.occ[set])
	}
	return len(s.dyn[set])
}

// Touch records one touch of line address la and returns its within-set
// stack distance, or -1 when the line was not tracked (a cold miss or,
// in bounded mode, a reuse deeper than the bound — either way a miss at
// every tracked associativity). write marks the touch as a write for the
// dirty markers; write-back events are accumulated into Writebacks.
func (s *PerSetStacks) Touch(la uint64, write bool) int {
	if s.depth > 0 {
		return s.touchBounded(la, write)
	}
	return s.touchUnbounded(la, write)
}

// touched returns an entry's minDirty after a touch at distance d.
func touched(minDirty int32, d int, write bool) int32 {
	if write {
		return 1
	}
	return max(minDirty, int32(d)+1)
}

func newMinDirty(write bool) int32 {
	if write {
		return 1
	}
	return stackClean
}

func (s *PerSetStacks) touchBounded(la uint64, write bool) int {
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
		s.credit(md, d)
		for j := d; j > 0; j-- { // shorter than a memmove call at these depths
			tags[j], dirty[j] = tags[j-1], dirty[j-1]
		}
		tags[0], dirty[0] = la, touched(md, d, write)
		return d
	}
	// Untracked: a miss (and an eviction, where full) at every tracked
	// associativity. At the bound the bottom entry falls off entirely —
	// it is non-resident in every tracked cache, so dropping it is exact
	// once its slide through the last position is credited.
	if n == s.depth {
		s.credit(dirty[n-1], n)
	} else {
		n++
		s.occ[si] = int32(n)
		tags, dirty = s.tags[base:base+n], s.dirty[base:base+n]
	}
	for j := n - 1; j > 0; j-- {
		tags[j], dirty[j] = tags[j-1], dirty[j-1]
	}
	tags[0], dirty[0] = la, newMinDirty(write)
	return -1
}

// markTopDirty records a write to la, which must be the most recent
// line of its set (a touch at distance 0), in a bounded stack. It
// reports whether the line was already dirty at every associativity.
func (s *PerSetStacks) markTopDirty(la uint64) bool {
	top := &s.dirty[int(la&s.mask)*s.depth]
	if *top == 1 {
		return true
	}
	*top = 1
	return false
}

func (s *PerSetStacks) touchUnbounded(la uint64, write bool) int {
	si := int(la & s.mask)
	stack := s.dyn[si]
	for d := range stack {
		if stack[d].la != la {
			continue
		}
		e := stack[d]
		s.credit(e.minDirty, d)
		copy(stack[1:d+1], stack[:d])
		stack[0] = stackEntry{la: la, minDirty: touched(e.minDirty, d, write)}
		return d
	}
	// A cold touch: nothing leaves an unbounded stack, so every entry's
	// slide stays pending.
	n := len(stack)
	stack = append(stack, stackEntry{})
	copy(stack[1:], stack[:n])
	stack[0] = stackEntry{la: la, minDirty: newMinDirty(write)}
	s.dyn[si] = stack
	return -1
}

// credit charges the write-backs of one finished slide: an entry with
// the given minDirty went from position 0 down to position p, so every
// a-way cache with minDirty ≤ a ≤ p evicted it dirty.
func (s *PerSetStacks) credit(minDirty int32, p int) {
	if int(minDirty) > p {
		return
	}
	for len(s.wbDiff) < p+2 {
		s.wbDiff = append(s.wbDiff, 0)
	}
	s.wbDiff[minDirty]++
	s.wbDiff[p+1]--
}

// Writebacks returns the accumulated write-back counts: Writebacks()[a]
// is the write-back count of an a-way write-back, write-allocate LRU
// cache of this geometry (index 0 unused). It settles the credited
// ranges plus the pending range of every resident entry, without
// changing the stacks. Bounded stacks report every tracked
// associativity; unbounded ones stop at the deepest position credited,
// and callers should treat missing indices as zero.
func (s *PerSetStacks) Writebacks() []uint64 {
	settled := &PerSetStacks{wbDiff: append([]uint64(nil), s.wbDiff...)}
	for si, n := range s.occ {
		for p, md := range s.dirty[si*s.depth : si*s.depth+int(n)] {
			settled.credit(md, p)
		}
	}
	for _, stack := range s.dyn {
		for p, e := range stack {
			settled.credit(e.minDirty, p)
		}
	}
	wb := settled.wbDiff
	for a := 1; a < len(wb); a++ {
		wb[a] += wb[a-1]
	}
	return wb[:len(wb)-1]
}

// Reset clears all stacks and counters.
func (s *PerSetStacks) Reset() {
	clear(s.occ)
	clear(s.wbDiff)
	for i := range s.dyn {
		s.dyn[i] = s.dyn[i][:0]
	}
}
