// Package cachesim is a trace-driven cache simulator in the spirit of
// Dinero IV (Edler & Hill, paper reference [11]). It simulates direct-mapped
// and N-way set-associative caches with LRU, FIFO or pseudo-random
// replacement, classifies misses into the 3C categories
// (compulsory/capacity/conflict), and reports the hit/miss statistics that
// feed the paper's cycle and energy models.
//
// The paper's authors chose closed-form expressions over porting their
// kernels to Dinero; this reproduction does the opposite and simulates the
// actual address streams, then validates the paper's analytical expressions
// against the simulator (see internal/reuse).
package cachesim

import (
	"fmt"
	"math/bits"
)

// Replacement selects the victim-choice policy within a set.
type Replacement int

const (
	// LRU evicts the least recently used line (the paper's implicit policy
	// for set-associative caches).
	LRU Replacement = iota
	// FIFO evicts the oldest-filled line regardless of use.
	FIFO
	// Random evicts a pseudo-randomly chosen line (deterministic xorshift,
	// reproducible across runs).
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes one cache organization: the (T, L, S) triple of the
// paper plus simulator policies.
type Config struct {
	// SizeBytes is the total capacity T in bytes. Must be a power of two.
	SizeBytes int
	// LineBytes is the line (block) size L in bytes. Must be a power of
	// two and ≤ SizeBytes.
	LineBytes int
	// Assoc is the degree of set associativity S. 1 means direct-mapped.
	// Assoc = SizeBytes/LineBytes means fully associative. Must be a power
	// of two and divide the number of lines.
	Assoc int
	// Replacement is the within-set victim policy. Ignored for Assoc == 1.
	Replacement Replacement
	// WriteAllocate, when true (the default used throughout the paper's
	// experiments), fills a line on a write miss. When false, write misses
	// bypass the cache.
	WriteAllocate bool
	// WriteBack, when true, dirty lines are written to memory only on
	// eviction; when false the cache is write-through.
	WriteBack bool
	// VictimLines, when positive, attaches a small fully associative
	// victim buffer (Jouppi) of that many lines: lines evicted from the
	// main cache fall into it, and a main-cache miss that hits the buffer
	// swaps the line back without a memory access. It is the hardware
	// alternative to the paper's §4.1 software conflict elimination; the
	// ablation exhibit compares the two.
	VictimLines int
	// Classify turns on 3C miss classification: the cache keeps a shadow
	// of every line it has seen and a fully associative LRU cache of its
	// capacity, and splits its misses into compulsory, capacity and
	// conflict. Without it, every miss counts as a capacity miss. It
	// changes no other statistic.
	Classify bool
}

// DefaultConfig returns the paper's baseline policies for a (T, L, S)
// triple: write-allocate, write-back, LRU.
func DefaultConfig(sizeBytes, lineBytes, assoc int) Config {
	return Config{
		SizeBytes:     sizeBytes,
		LineBytes:     lineBytes,
		Assoc:         assoc,
		Replacement:   LRU,
		WriteAllocate: true,
		WriteBack:     true,
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks the geometry constraints.
func (c Config) Validate() error {
	if !isPow2(c.SizeBytes) {
		return fmt.Errorf("cachesim: cache size %d is not a positive power of two", c.SizeBytes)
	}
	if !isPow2(c.LineBytes) {
		return fmt.Errorf("cachesim: line size %d is not a positive power of two", c.LineBytes)
	}
	if c.LineBytes > c.SizeBytes {
		return fmt.Errorf("cachesim: line size %d exceeds cache size %d", c.LineBytes, c.SizeBytes)
	}
	if !isPow2(c.Assoc) {
		return fmt.Errorf("cachesim: associativity %d is not a positive power of two", c.Assoc)
	}
	if c.Assoc > c.NumLines() {
		return fmt.Errorf("cachesim: associativity %d exceeds number of lines %d", c.Assoc, c.NumLines())
	}
	switch c.Replacement {
	case LRU, FIFO, Random:
	default:
		return fmt.Errorf("cachesim: unknown replacement policy %d", int(c.Replacement))
	}
	if c.VictimLines < 0 {
		return fmt.Errorf("cachesim: negative victim buffer size %d", c.VictimLines)
	}
	return nil
}

// NumLines returns the total number of cache lines T/L.
func (c Config) NumLines() int { return c.SizeBytes / c.LineBytes }

// NumSets returns the number of sets T/(L·S).
func (c Config) NumSets() int { return c.NumLines() / c.Assoc }

// OffsetBits returns log2(LineBytes).
func (c Config) OffsetBits() int { return bits.TrailingZeros(uint(c.LineBytes)) }

// IndexBits returns log2(NumSets).
func (c Config) IndexBits() int { return bits.TrailingZeros(uint(c.NumSets())) }

// LineAddr maps a byte address to its line address (address / LineBytes).
func (c Config) LineAddr(addr uint64) uint64 { return addr >> uint(c.OffsetBits()) }

// SetIndex maps a byte address to its set index.
func (c Config) SetIndex(addr uint64) uint64 {
	return c.LineAddr(addr) & uint64(c.NumSets()-1)
}

// Tag returns the tag bits of a byte address.
func (c Config) Tag(addr uint64) uint64 {
	return c.LineAddr(addr) >> uint(c.IndexBits())
}

// String renders the configuration in the paper's CxxLyy style with the
// associativity and policy appended.
func (c Config) String() string {
	return fmt.Sprintf("C%dL%dS%d(%s)", c.SizeBytes, c.LineBytes, c.Assoc, c.Replacement)
}
