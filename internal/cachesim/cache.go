package cachesim

import (
	"fmt"
	"io"

	"memexplore/internal/trace"
)

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lastUse is a monotonically increasing timestamp for LRU; fillTime is
	// the fill timestamp for FIFO.
	lastUse  uint64
	fillTime uint64
}

// Cache is a single-level cache simulator instance. It is not safe for
// concurrent use; create one Cache per goroutine.
type Cache struct {
	cfg   Config
	sets  [][]line
	lines []line // flat backing array for sets: set i is lines[i*Assoc : (i+1)*Assoc]
	clock uint64
	stats Stats

	// Geometry derived from cfg once at construction. The per-line lookup
	// is the simulator's hot loop; recomputing NumSets/IndexBits there
	// costs two integer divisions per line touch, which dominates small-set
	// scans in wide sweeps.
	offShift uint   // log2(LineBytes)
	idxShift uint   // log2(NumSets)
	setMask  uint64 // NumSets - 1

	// rngState drives the Random replacement policy (xorshift64).
	rngState uint64

	// shadow holds the 3C classification state (see shadow3C); it is nil
	// for caches built with NewFast, which skip classification to save
	// time and memory in wide sweeps.
	shadow *shadow3C

	// victim is the optional victim buffer (Config.VictimLines > 0),
	// ordered most recently inserted first.
	victim []victimEntry
}

type victimEntry struct {
	lineAddr uint64
	dirty    bool
}

// New builds a cache for the given configuration with 3C classification
// enabled.
func New(cfg Config) (*Cache, error) {
	return newCache(cfg, true)
}

// NewFast builds a cache without 3C miss classification; Stats will report
// zero for the per-class counters. Useful in large exploration sweeps.
func NewFast(cfg Config) (*Cache, error) {
	return newCache(cfg, false)
}

func newCache(cfg Config, classify bool) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, cfg.NumSets()),
		lines:    newLines(cfg.NumSets() * cfg.Assoc),
		offShift: uint(cfg.OffsetBits()),
		idxShift: uint(cfg.IndexBits()),
		setMask:  uint64(cfg.NumSets() - 1),
		rngState: 0x9e3779b97f4a7c15,
	}
	// Sets are views into one contiguous backing array: the whole cache
	// state stays in a few hardware cache lines during a simulation pass.
	for i := range c.sets {
		c.sets[i] = c.lines[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	if classify {
		c.shadow = newShadow3C(cfg.NumLines())
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears all cache contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
	c.rngState = 0x9e3779b97f4a7c15
	c.victim = nil
	if c.shadow != nil {
		c.shadow.reset()
	}
}

// AccessResult reports the outcome of a single reference.
type AccessResult struct {
	Hit bool
	// Class is NotMiss on a hit, otherwise the 3C class of the (first)
	// missing line. Caches built with NewFast do not classify; their
	// misses all report Capacity and the per-class Stats counters stay 0.
	Class MissClass
	// LinesTouched is how many distinct cache lines the reference spans
	// (>1 only for references that straddle a line boundary).
	LinesTouched int
}

// Access simulates one reference and updates statistics. A reference that
// spans multiple lines counts as one access; it is a hit only if every
// spanned line hits. The LRU/FIFO clock advances once per spanned line
// (not per reference), so recency is totally ordered even within a
// spanning reference — the exact-LRU property the inclusion engine's
// stack model relies on.
func (c *Cache) Access(r trace.Ref) AccessResult {
	first := r.Addr >> c.offShift
	last := r.LastByte() >> c.offShift

	res := AccessResult{Hit: true, Class: NotMiss, LinesTouched: int(last-first) + 1}
	for la := first; la <= last; la++ {
		hit, class := c.accessLine(la, r.Kind)
		if !hit && res.Hit {
			res.Hit = false
			res.Class = class
		}
	}

	c.stats.Accesses++
	switch r.Kind {
	case trace.Read:
		c.stats.Reads++
	case trace.Write:
		c.stats.Writes++
	case trace.Fetch:
		c.stats.Fetches++
	}
	if res.Hit {
		c.stats.Hits++
		switch r.Kind {
		case trace.Read:
			c.stats.ReadHits++
		case trace.Write:
			c.stats.WriteHits++
		}
	} else {
		c.stats.Misses++
		switch r.Kind {
		case trace.Read:
			c.stats.ReadMisses++
		case trace.Write:
			c.stats.WriteMisses++
		}
		switch res.Class {
		case Compulsory:
			c.stats.CompulsoryMisses++
		case Capacity:
			c.stats.CapacityMisses++
		case Conflict:
			c.stats.ConflictMisses++
		}
	}
	return res
}

// AccessBlock simulates a slice of references in order, exactly
// equivalent to calling Access on each (same statistics, same cache
// contents), discarding the per-access results. Caches without 3C
// classification and without a victim buffer take a specialized hot
// path with the per-line lookup inlined — a Sweep feeds its fallback
// caches the trace in blocks so each cache's state stays resident
// while it runs, instead of fanning every reference across all caches.
func (c *Cache) AccessBlock(refs []trace.Ref) {
	if c.shadow != nil || c.cfg.VictimLines > 0 {
		for _, r := range refs {
			c.Access(r)
		}
		return
	}
	writeBack, writeAlloc := c.cfg.WriteBack, c.cfg.WriteAllocate
	if c.cfg.Assoc == 1 {
		// Direct-mapped: the set is a single line, so the way scan, empty-way
		// search and victim pick all collapse to one indexed compare (the
		// replacement policy is irrelevant when there is only one way).
		// Clock and statistics live in locals for the whole block — the loop
		// makes no calls, so they stay in registers.
		mask := c.setMask
		lines := c.lines[:mask+1]
		offShift, idxShift := c.offShift, c.idxShift
		clock := c.clock
		st := c.stats
		for _, r := range refs {
			first := r.Addr >> offShift
			last := r.LastByte() >> offShift
			isWrite := r.Kind == trace.Write
			hit := true
			for la := first; la <= last; la++ {
				clock++
				l := &lines[la&mask]
				tag := la >> idxShift
				if l.valid && l.tag == tag {
					l.lastUse = clock
					if isWrite {
						if writeBack {
							l.dirty = true
						} else {
							st.WriteThroughs++
						}
					}
					continue
				}
				hit = false
				if isWrite && !writeAlloc {
					// Write miss without allocation: goes straight to memory.
					st.WriteThroughs++
					continue
				}
				if l.valid && l.dirty {
					st.WriteBacks++
				}
				*l = line{tag: tag, valid: true, dirty: isWrite && writeBack, lastUse: clock, fillTime: clock}
				if isWrite && !writeBack {
					st.WriteThroughs++
				}
				st.LinesFetched++
			}
			st.tally(r.Kind, hit)
		}
		c.clock = clock
		c.stats = st
		return
	}
	for _, r := range refs {
		first := r.Addr >> c.offShift
		last := r.LastByte() >> c.offShift
		isWrite := r.Kind == trace.Write
		hit := true
		for la := first; la <= last; la++ {
			c.clock++
			setIdx := la & c.setMask
			tag := la >> c.idxShift
			set := c.sets[setIdx]
			found := false
			for i := range set {
				if set[i].valid && set[i].tag == tag {
					set[i].lastUse = c.clock
					if isWrite {
						if writeBack {
							set[i].dirty = true
						} else {
							c.stats.WriteThroughs++
						}
					}
					found = true
					break
				}
			}
			if found {
				continue
			}
			hit = false
			if isWrite && !writeAlloc {
				// Write miss without allocation: goes straight to memory.
				c.stats.WriteThroughs++
				continue
			}
			c.installLine(set, setIdx, tag, r.Kind, false)
			if isWrite && !writeBack {
				c.stats.WriteThroughs++
			}
			c.stats.LinesFetched++
		}
		c.stats.tally(r.Kind, hit)
	}
}

// tally applies the per-access statistics shared by the AccessBlock fast
// paths, mirroring the tail of Access for non-classified caches (every
// miss carries the Capacity placeholder class, see accessLine).
func (st *Stats) tally(kind trace.Kind, hit bool) {
	st.Accesses++
	switch kind {
	case trace.Read:
		st.Reads++
	case trace.Write:
		st.Writes++
	case trace.Fetch:
		st.Fetches++
	}
	if hit {
		st.Hits++
		switch kind {
		case trace.Read:
			st.ReadHits++
		case trace.Write:
			st.WriteHits++
		}
	} else {
		st.Misses++
		switch kind {
		case trace.Read:
			st.ReadMisses++
		case trace.Write:
			st.WriteMisses++
		}
		st.CapacityMisses++
	}
}

// accessLine performs the per-line lookup/fill and returns whether the line
// hit and, if not, its 3C class.
func (c *Cache) accessLine(lineAddr uint64, kind trace.Kind) (bool, MissClass) {
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> c.idxShift
	set := c.sets[setIdx]
	c.clock++

	// The shadow is updated on every line touch so that the
	// classification reflects the same reference stream.
	var shadowHit, everSeen bool
	if c.shadow != nil {
		var level int
		everSeen, level = c.shadow.touch(lineAddr)
		shadowHit = level == 0
	}

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.clock
			if kind == trace.Write {
				if c.cfg.WriteBack {
					set[i].dirty = true
				} else {
					c.stats.WriteThroughs++
				}
			}
			return true, NotMiss
		}
	}

	// Main-cache miss: try the victim buffer before declaring a miss.
	if c.cfg.VictimLines > 0 {
		if entry, ok := c.victimTake(lineAddr); ok {
			c.stats.VictimHits++
			c.installLine(set, setIdx, tag, kind, entry.dirty)
			if kind == trace.Write && !c.cfg.WriteBack {
				c.stats.WriteThroughs++
			}
			return true, NotMiss
		}
	}

	// Miss. Classify first.
	class := Conflict
	if c.shadow != nil {
		if !everSeen {
			class = Compulsory
		} else if !shadowHit {
			class = Capacity
		}
	} else {
		class = Capacity // aggregate-only placeholder; per-class stats stay 0
	}

	if kind == trace.Write && !c.cfg.WriteAllocate {
		// Write miss without allocation: goes straight to memory.
		c.stats.WriteThroughs++
		return false, class
	}

	c.installLine(set, setIdx, tag, kind, false)
	if kind == trace.Write && !c.cfg.WriteBack {
		c.stats.WriteThroughs++
	}
	c.stats.LinesFetched++
	return false, class
}

// installLine fills the line with the given tag into the set, evicting a
// victim way if needed. wasDirty carries dirtiness recovered from the
// victim buffer.
func (c *Cache) installLine(set []line, setIdx, tag uint64, kind trace.Kind, wasDirty bool) {
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = c.pickVictim(set)
	}
	if set[victim].valid {
		c.evictLine(set[victim], setIdx)
	}
	set[victim] = line{
		tag:      tag,
		valid:    true,
		dirty:    wasDirty || (kind == trace.Write && c.cfg.WriteBack),
		lastUse:  c.clock,
		fillTime: c.clock,
	}
}

// evictLine disposes of an evicted main-cache line: into the victim buffer
// when one is configured, else straight to memory (write-back if dirty).
func (c *Cache) evictLine(l line, setIdx uint64) {
	if c.cfg.VictimLines == 0 {
		if l.dirty {
			c.stats.WriteBacks++
		}
		return
	}
	lineAddr := l.tag<<c.idxShift | setIdx
	c.victimInsert(victimEntry{lineAddr: lineAddr, dirty: l.dirty})
}

// victimTake removes and returns the buffer entry for lineAddr.
func (c *Cache) victimTake(lineAddr uint64) (victimEntry, bool) {
	for i, e := range c.victim {
		if e.lineAddr == lineAddr {
			c.victim = append(c.victim[:i], c.victim[i+1:]...)
			return e, true
		}
	}
	return victimEntry{}, false
}

// victimInsert pushes an entry, evicting the oldest beyond capacity.
func (c *Cache) victimInsert(e victimEntry) {
	c.victim = append([]victimEntry{e}, c.victim...)
	if len(c.victim) > c.cfg.VictimLines {
		dropped := c.victim[len(c.victim)-1]
		c.victim = c.victim[:len(c.victim)-1]
		if dropped.dirty {
			c.stats.WriteBacks++
		}
	}
}

func (c *Cache) pickVictim(set []line) int {
	switch c.cfg.Replacement {
	case LRU:
		v, best := 0, set[0].lastUse
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < best {
				v, best = i, set[i].lastUse
			}
		}
		return v
	case FIFO:
		v, best := 0, set[0].fillTime
		for i := 1; i < len(set); i++ {
			if set[i].fillTime < best {
				v, best = i, set[i].fillTime
			}
		}
		return v
	case Random:
		// xorshift64
		x := c.rngState
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.rngState = x
		return int(x % uint64(len(set)))
	default:
		return 0
	}
}

// Run drains a Source through the cache and returns the statistics
// accumulated over the whole run (including any prior accesses).
func (c *Cache) Run(src trace.Source) (Stats, error) {
	for {
		r, err := src.Next()
		if err == io.EOF {
			return c.stats, nil
		}
		if err != nil {
			return c.stats, fmt.Errorf("cachesim: reading trace: %w", err)
		}
		c.Access(r)
	}
}

// RunTrace simulates an in-memory trace on a fresh cache of the given
// configuration and returns the statistics.
func RunTrace(cfg Config, tr *trace.Trace) (Stats, error) {
	c, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	c.AccessBlock(tr.Refs())
	return c.stats, nil
}

// RunTraceFast is RunTrace without 3C classification.
func RunTraceFast(cfg Config, tr *trace.Trace) (Stats, error) {
	c, err := NewFast(cfg)
	if err != nil {
		return Stats{}, err
	}
	c.AccessBlock(tr.Refs())
	return c.stats, nil
}

// Contains reports whether the line holding addr is currently resident.
// Intended for tests and invariant checks.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := c.cfg.LineAddr(addr)
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.idxShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// ResidentLines returns the number of valid lines currently in the cache.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}
