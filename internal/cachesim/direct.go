package cachesim

import (
	"context"
	"fmt"

	"memexplore/internal/trace"
)

// DirectMappedCounts is the part of a classified direct-mapped
// simulation that the §4.1 layout guard compares: the misses and the
// conflict misses.
type DirectMappedCounts struct {
	Misses         uint64
	ConflictMisses uint64
}

// CountDirectMapped returns, for every set count in sets (ascending
// powers of two), the Misses and ConflictMisses that
// RunTrace(DefaultConfig(s·lineBytes, lineBytes, 1), tr) reports, from
// one pass over tr. The pass stops as soon as the conflict misses at
// sets[0] exceed maxConflicts; complete reports whether it reached the
// end of the trace, and the counts are those at the stop. The context is
// checked every CancelCheckInterval references.
func CountDirectMapped(ctx context.Context, tr *trace.Trace, lineBytes int, sets []int, maxConflicts uint64) (counts []DirectMappedCounts, complete bool, err error) {
	c, err := newDirectCounter(tr, lineBytes, sets)
	if err != nil {
		return nil, false, err
	}
	complete, err = c.run(ctx, tr.Refs(), maxConflicts)
	if err != nil {
		return nil, false, err
	}
	return c.counts, complete, nil
}

// directCounter simulates direct-mapped, write-allocate caches of one
// line size and several set counts over one reference stream: a tag
// array per set count, and one shadow3C whose capacities are the set
// counts for the 3C classification. Under bit-selection indexing a line
// that hits at S sets is the most recent line of its set at every larger
// set count too, so a touch walks the tag arrays in ascending set count
// and stops at the first hit.
type directCounter struct {
	offShift uint
	masks    []uint64   // per level: sets - 1
	tags     [][]uint64 // per level: the line each set holds
	shadow   *shadow3C
	counts   []DirectMappedCounts
	last     uint64 // the line touched most recently
}

func newDirectCounter(tr *trace.Trace, lineBytes int, sets []int) (*directCounter, error) {
	if len(sets) == 0 || len(sets) > 64 {
		return nil, fmt.Errorf("cachesim: direct-mapped counter needs 1 to 64 set counts, got %d", len(sets))
	}
	c := &directCounter{
		masks:  make([]uint64, len(sets)),
		tags:   make([][]uint64, len(sets)),
		shadow: newShadow3C(sets...),
		counts: make([]DirectMappedCounts, len(sets)),
	}
	for j, s := range sets {
		cfg := DefaultConfig(s*lineBytes, lineBytes, 1)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if j > 0 && s <= sets[j-1] {
			return nil, fmt.Errorf("cachesim: direct-mapped set counts %v are not ascending", sets)
		}
		c.offShift = uint(cfg.OffsetBits())
		c.masks[j] = uint64(s - 1)
		// Slot i starts out holding ^i, which no line indexed to slot i
		// can equal when there are at least two sets.
		tags := make([]uint64, s)
		for i := range tags {
			tags[i] = ^uint64(i)
		}
		c.tags[j] = tags
	}
	if tr.Len() > 0 {
		// No touch precedes the first: make sure no slot or last-line
		// check mistakes it for a hit.
		first := tr.At(0).Addr >> c.offShift
		c.last = ^first
		for j, tags := range c.tags {
			if tags[first&c.masks[j]] == first {
				tags[first&c.masks[j]] = ^first
			}
		}
	}
	return c, nil
}

// run counts refs, checking ctx every CancelCheckInterval references,
// and stops early (complete false) once the first level's conflict
// misses exceed maxConflicts.
func (c *directCounter) run(ctx context.Context, refs []trace.Ref, maxConflicts uint64) (complete bool, err error) {
	for start := 0; start < len(refs); start += CancelCheckInterval {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		for _, r := range refs[start:min(start+CancelCheckInterval, len(refs))] {
			first := r.Addr >> c.offShift
			last := r.LastByte() >> c.offShift
			missed := uint64(0)
			for la := first; la <= last; la++ {
				missed = c.touch(la, missed)
			}
			if c.counts[0].ConflictMisses > maxConflicts {
				return false, nil
			}
		}
	}
	return true, nil
}

// touch simulates one line touch at every level. A reference that spans
// lines is one access whose miss takes the class of its first missing
// line, so missed marks the levels where the reference has already
// missed; touch returns it updated.
func (c *directCounter) touch(la uint64, missed uint64) uint64 {
	if la == c.last {
		// The previous touch left la in every tag array and at the
		// front of the shadow: a hit everywhere that moves nothing.
		return missed
	}
	c.last = la
	seen, level := c.shadow.touch(la)
	for j, mask := range c.masks {
		slot := &c.tags[j][la&mask]
		if *slot == la {
			break
		}
		*slot = la
		if missed&(1<<j) == 0 {
			missed |= 1 << j
			c.counts[j].Misses++
			// A fully associative cache of the same capacity holds the
			// line iff its level is at most j: a conflict.
			if seen && level <= j {
				c.counts[j].ConflictMisses++
			}
		}
	}
	return missed
}
