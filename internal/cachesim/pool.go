package cachesim

import (
	"sync"
	"sync/atomic"
)

// linePool recycles the flat per-cache backing arrays across sweeps: a
// wide exploration builds and discards a Cache per fallback
// configuration per workload group, and those arrays dominate the
// engine's allocation profile. Arrays are returned via Sweep.Release
// once their statistics have been read out.
var linePool sync.Pool // stores *[]line

// newLines returns a zeroed line array of length n, reusing a pooled
// array when one is large enough.
func newLines(n int) []line {
	if p, _ := linePool.Get().(*[]line); p != nil && cap(*p) >= n {
		a := (*p)[:n]
		clear(a)
		return a
	}
	return make([]line, n)
}

// poolPuts counts line arrays returned to the pool over the process
// lifetime — a monotonic test hook that lets sweep-teardown tests verify
// Release runs on every path (including error returns) without reaching
// into sync.Pool internals.
var poolPuts atomic.Uint64

// PoolPuts reports how many line arrays have been returned to the
// package pool so far. Tests compare deltas around an operation; the
// counter never decreases.
func PoolPuts() uint64 { return poolPuts.Load() }

// releaseLines returns a line array to the pool.
func releaseLines(a []line) {
	if cap(a) > 0 {
		linePool.Put(&a)
		poolPuts.Add(1)
	}
}

// release returns the cache's backing array to the pool. The cache must
// not be used afterwards.
func (c *Cache) release() {
	if c.lines != nil {
		releaseLines(c.lines)
		c.lines, c.sets = nil, nil
	}
}
