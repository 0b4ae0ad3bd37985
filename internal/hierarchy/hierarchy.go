// Package hierarchy simulates a two-level on-chip cache (L1 + L2) and
// extends the paper's cycle and energy models to it. The paper explores a
// single level backed by off-chip SRAM; embedded SoCs of the following
// generation added a unified L2, and the natural question — does a second
// level ever beat spending the same silicon on a bigger L1? — is answered
// by the ext-l2 exhibit with the same three metrics.
//
// Model: every reference probes L1; an L1 miss fetches the L1 line from
// L2 (one L2 access of L1-line width); an L2 miss fetches the L2 line
// from main memory. Write-backs are tallied per level but — matching the
// paper's read-only energy accounting — do not generate additional
// traffic between levels. Cycles charge the §2.2 hit latency per level
// and the §2.2 miss penalty only for L2 misses (L1→L2 refills cost an L2
// hit latency). Energy charges each level's §2.3 E_cell/E_dec per access
// at that level and E_io/E_main only on L2 misses.
package hierarchy

import (
	"fmt"
	"io"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/cycles"
	"memexplore/internal/energy"
	"memexplore/internal/trace"
)

// Config is a two-level organization.
type Config struct {
	L1 cachesim.Config
	L2 cachesim.Config
}

// Validate checks both levels plus the inclusion-friendly constraints the
// model assumes: L2 at least as big as L1 and an L2 line at least as long
// as an L1 line.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("hierarchy: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("hierarchy: L2: %w", err)
	}
	if c.L2.SizeBytes < c.L1.SizeBytes {
		return fmt.Errorf("hierarchy: L2 (%d B) smaller than L1 (%d B)", c.L2.SizeBytes, c.L1.SizeBytes)
	}
	if c.L2.LineBytes < c.L1.LineBytes {
		return fmt.Errorf("hierarchy: L2 line (%d B) shorter than L1 line (%d B)", c.L2.LineBytes, c.L1.LineBytes)
	}
	return nil
}

// String renders the pair.
func (c Config) String() string {
	return fmt.Sprintf("L1[%s]+L2[%s]", c.L1, c.L2)
}

// Stats carries per-level statistics.
type Stats struct {
	L1 cachesim.Stats
	L2 cachesim.Stats
}

// GlobalMissRate is the fraction of processor references that reach main
// memory (L1 misses that also miss L2).
func (s Stats) GlobalMissRate() float64 {
	if s.L1.Accesses == 0 {
		return 0
	}
	return float64(s.L2.Misses) / float64(s.L1.Accesses)
}

// Sim is a running two-level simulation.
type Sim struct {
	cfg Config
	l1  *cachesim.Cache
	l2  *cachesim.Cache
}

// New builds a two-level simulator. A level classifies its misses only
// when its Config.Classify is set.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := cachesim.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := cachesim.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, l1: l1, l2: l2}, nil
}

// Access simulates one processor reference through both levels.
func (s *Sim) Access(r trace.Ref) {
	res := s.l1.Access(r)
	if res.Hit {
		return
	}
	// Refill every L1 line the reference touched from L2. Writes that
	// missed L1 allocate there (write-allocate), so L2 sees a read fill.
	lineBytes := uint64(s.cfg.L1.LineBytes)
	first := r.Addr &^ (lineBytes - 1)
	last := r.LastByte() &^ (lineBytes - 1)
	for la := first; la <= last; la += lineBytes {
		s.l2.Access(trace.Ref{Addr: la, Kind: trace.Read, Size: uint8(s.cfg.L1.LineBytes)})
	}
}

// Run drains a source.
func (s *Sim) Run(src trace.Source) (Stats, error) {
	for {
		r, err := src.Next()
		if err == io.EOF {
			return s.Stats(), nil
		}
		if err != nil {
			return s.Stats(), fmt.Errorf("hierarchy: reading trace: %w", err)
		}
		s.Access(r)
	}
}

// Stats returns the per-level statistics so far.
func (s *Sim) Stats() Stats {
	return Stats{L1: s.l1.Stats(), L2: s.l2.Stats()}
}

// Run simulates a whole trace on a fresh hierarchy.
func Run(cfg Config, tr *trace.Trace) (Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	return s.Run(tr.Reader())
}

// Metrics extends the paper's triple to the two-level organization.
type Metrics struct {
	Config   Config
	Stats    Stats
	Cycles   float64
	EnergyNJ float64
}

// l2HitCycles is the L1-refill latency from L2: tag + array access plus
// line transfer, far below the off-chip penalty.
const l2HitCycles = 4

// Evaluate scores a trace on a two-level configuration with the extended
// models.
func Evaluate(cfg Config, tr *trace.Trace, p energy.Params) (Metrics, error) {
	st, err := Run(cfg, tr)
	if err != nil {
		return Metrics{}, err
	}
	addBS := bus.MeasureTrace(tr, bus.Gray).AddBS()

	cph1, err := cycles.CyclesPerHit(cfg.L1.Assoc)
	if err != nil {
		return Metrics{}, err
	}
	cpm2, err := cycles.CyclesPerMiss(cfg.L2.LineBytes)
	if err != nil {
		return Metrics{}, err
	}
	cyc := float64(st.L1.Hits)*cph1 +
		float64(st.L1.Misses)*(cph1+l2HitCycles) +
		float64(st.L2.Misses)*cpm2

	// Energy: every processor access pays L1 E_dec+E_cell; every L2
	// access pays L2 E_dec+E_cell; L2 misses pay E_io+E_main of the L2
	// geometry.
	b1, err := energy.PerAccess(p, cfg.L1, addBS)
	if err != nil {
		return Metrics{}, err
	}
	b2, err := energy.PerAccess(p, cfg.L2, addBS)
	if err != nil {
		return Metrics{}, err
	}
	en := float64(st.L1.Accesses)*b1.Hit() +
		float64(st.L2.Accesses)*b2.Hit() +
		float64(st.L2.Misses)*(b2.EIO+b2.EMain)
	return Metrics{Config: cfg, Stats: st, Cycles: cyc, EnergyNJ: en}, nil
}

// Explore sweeps (L1 size, L2 size) pairs at fixed line sizes and returns
// the metrics in deterministic order. L2 sizes must exceed their paired
// L1 (smaller combinations are skipped).
func Explore(tr *trace.Trace, l1Sizes, l2Sizes []int, l1Line, l2Line, assoc int, p energy.Params) ([]Metrics, error) {
	var out []Metrics
	for _, s1 := range l1Sizes {
		for _, s2 := range l2Sizes {
			if s2 <= s1 {
				continue
			}
			cfg := Config{
				L1: cachesim.DefaultConfig(s1, l1Line, assoc),
				L2: cachesim.DefaultConfig(s2, l2Line, assoc),
			}
			if cfg.Validate() != nil {
				continue
			}
			m, err := Evaluate(cfg, tr, p)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hierarchy: no legal (L1, L2) pair in the sweep")
	}
	return out, nil
}

// MinEnergy picks the lowest-energy pair.
func MinEnergy(ms []Metrics) (Metrics, bool) {
	if len(ms) == 0 {
		return Metrics{}, false
	}
	best := ms[0]
	for _, m := range ms[1:] {
		if m.EnergyNJ < best.EnergyNJ {
			best = m
		}
	}
	return best, true
}
