package layout

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"memexplore/internal/cachesim"
	"memexplore/internal/loopir"
	"memexplore/internal/reuse"
	"memexplore/internal/trace"
)

// Geometry is the direct-mapped cache mapping a plan targets.
type Geometry struct {
	LineBytes int
	Sets      int
}

// valid reports whether the simulator can model the geometry.
func (g Geometry) valid() bool {
	return cachesim.DefaultConfig(g.Sets*g.LineBytes, g.LineBytes, 1).Validate() == nil
}

// Sequential is one nest as the guard sees it, for one tiling: the
// nest compiled for generation (loopir.Program) and its reuse classes,
// both made once for every geometry's assignment, and the sequential
// layout's trace under loopir.SequentialLayout(n, 0) with that trace's
// direct-mapped misses and conflict misses. The classes are computed
// and the trace is generated on first use. The counts of one line size
// come from one pass over the trace, at every set count the Sequential
// was built for, the first time a guard asks for that line size. A
// Sequential is safe for concurrent use: distinct line sizes are
// counted concurrently, each at most once.
type Sequential struct {
	nest  *loopir.Nest
	prog  *loopir.Program
	lines map[int]*lineCounts // by line size; read-only after NewSequential

	classesOnce sync.Once
	classes     []reuse.Class // read-only
	classesErr  error

	traceOnce sync.Once
	tr        atomic.Pointer[trace.Trace] // Release reads it outside traceOnce
	trErr     error
}

// lineCounts is the counting of one line size.
type lineCounts struct {
	sets   []int // ascending set counts to count
	once   sync.Once
	counts []cachesim.DirectMappedCounts // parallel to sets
	err    error
}

// NewSequential prepares the sequential layout of n for guards at the
// given geometries: it compiles n. Geometries the simulator cannot model
// are skipped; the guard never counts them.
func NewSequential(n *loopir.Nest, geoms []Geometry) (*Sequential, error) {
	prog, err := n.Compile()
	if err != nil {
		return nil, err
	}
	s := &Sequential{nest: n, prog: prog, lines: make(map[int]*lineCounts)}
	for _, g := range geoms {
		if !g.valid() {
			continue
		}
		lc := s.lines[g.LineBytes]
		if lc == nil {
			lc = &lineCounts{}
			s.lines[g.LineBytes] = lc
		}
		if !slices.Contains(lc.sets, g.Sets) {
			lc.sets = append(lc.sets, g.Sets)
		}
	}
	for _, lc := range s.lines {
		slices.Sort(lc.sets)
	}
	return s, nil
}

// reuseClasses returns the nest's reuse classes, computing them on the
// first call.
func (s *Sequential) reuseClasses() ([]reuse.Class, error) {
	s.classesOnce.Do(func() { s.classes, s.classesErr = reuse.Classes(s.nest) })
	return s.classes, s.classesErr
}

// Trace returns the nest's trace under the sequential layout, generating
// it on the first call. Callers must treat it as read-only.
func (s *Sequential) Trace() (*trace.Trace, error) {
	s.traceOnce.Do(func() {
		tr, err := s.prog.Generate(loopir.SequentialLayout(s.nest, 0))
		s.tr.Store(tr)
		s.trErr = err
	})
	return s.tr.Load(), s.trErr
}

// planBufs recycles the reference buffers of padded plans' traces
// across guards, sweeps and requests.
var planBufs sync.Pool // of *[]trace.Ref

// planTrace generates the nest's trace under a plan's layout into a
// pooled buffer.
func (s *Sequential) planTrace(l loopir.Layout) (*trace.Trace, error) {
	var buf []trace.Ref
	if p, ok := planBufs.Get().(*[]trace.Ref); ok {
		buf = (*p)[:0]
	}
	refs, err := s.prog.AppendTrace(buf, l)
	if err != nil {
		return nil, err
	}
	return trace.FromRefs(refs), nil
}

// Release hands a trace that OptimizeTrace returned back for reuse by
// later plan traces. The sequential trace, which s owns, and nil are
// ignored. Nothing may touch tr after Release.
func (s *Sequential) Release(tr *trace.Trace) {
	if tr == nil || tr == s.tr.Load() {
		return
	}
	refs := tr.Refs()[:0]
	planBufs.Put(&refs)
}

// counts returns the sequential trace's direct-mapped counts at g, a
// geometry the simulator can model. A geometry the Sequential was not
// built for is counted on its own.
func (s *Sequential) counts(ctx context.Context, g Geometry) (cachesim.DirectMappedCounts, error) {
	tr, err := s.Trace()
	if err != nil {
		return cachesim.DirectMappedCounts{}, err
	}
	lc := s.lines[g.LineBytes]
	i, ok := 0, false
	if lc != nil {
		i, ok = slices.BinarySearch(lc.sets, g.Sets)
	}
	if !ok {
		c, _, err := cachesim.CountDirectMapped(ctx, tr, g.LineBytes, []int{g.Sets}, math.MaxUint64)
		if err != nil {
			return cachesim.DirectMappedCounts{}, err
		}
		return c[0], nil
	}
	lc.once.Do(func() {
		lc.counts, _, lc.err = cachesim.CountDirectMapped(ctx, tr, g.LineBytes, lc.sets, math.MaxUint64)
	})
	if lc.err != nil {
		return cachesim.DirectMappedCounts{}, lc.err
	}
	return lc.counts[i], nil
}
