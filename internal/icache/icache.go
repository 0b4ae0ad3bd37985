// Package icache implements the paper's stated extension (§1, §6): "The
// exploration procedure described here for data caches can be extended to
// instruction caches by merging the method of Kirovski et al [8] with
// ours."
//
// Kirovski's application-driven synthesis walks the program's basic
// blocks; here a loop nest is lowered to a small static code layout — a
// header block per loop level (test/increment/branch) and one body block —
// and executing the nest yields the instruction-fetch trace. The same
// simulator, cycle model and energy model then score candidate
// instruction caches, and ExploreJoint merges the instruction- and
// data-cache sweeps under a shared on-chip area budget (the paper's outer
// "for on-chip memory size M" loop applied to both caches at once).
package icache

import (
	"fmt"
	"sort"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/cycles"
	"memexplore/internal/energy"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// CodeGen fixes the code-layout assumptions used to lower a loop nest to
// an instruction stream. The zero value is not useful; start from
// DefaultCodeGen.
type CodeGen struct {
	// InstrBytes is the instruction width (4 for a 32-bit embedded core).
	InstrBytes int
	// BaseAddr is the code segment base; it only needs to be disjoint
	// from the data segment, which starts at 0.
	BaseAddr uint64
	// BodyInstrsPerRef is how many instructions each memory reference of
	// the body costs (address arithmetic + the access itself).
	BodyInstrsPerRef int
	// BodyOverhead is the body's non-memory instruction count (the
	// arithmetic of the kernel statement).
	BodyOverhead int
	// LoopOverhead is the per-iteration loop-control instruction count
	// (compare, increment, branch).
	LoopOverhead int
}

// DefaultCodeGen returns a plausible 32-bit embedded code model.
func DefaultCodeGen() CodeGen {
	return CodeGen{
		InstrBytes:       4,
		BaseAddr:         0x100000,
		BodyInstrsPerRef: 3,
		BodyOverhead:     4,
		LoopOverhead:     3,
	}
}

// Validate rejects nonsensical code models.
func (g CodeGen) Validate() error {
	if g.InstrBytes <= 0 {
		return fmt.Errorf("icache: instruction width %d must be positive", g.InstrBytes)
	}
	if g.BodyInstrsPerRef < 1 || g.BodyOverhead < 0 || g.LoopOverhead < 1 {
		return fmt.Errorf("icache: invalid block sizes (%d/%d/%d)",
			g.BodyInstrsPerRef, g.BodyOverhead, g.LoopOverhead)
	}
	return nil
}

// block is one straight-line code region.
type block struct {
	addr   uint64
	instrs int
}

// layoutBlocks assigns sequential addresses: one header block per loop
// level (outermost first), then the body block.
func layoutBlocks(n *loopir.Nest, g CodeGen) (headers []block, body block) {
	addr := g.BaseAddr
	for range n.Loops {
		headers = append(headers, block{addr: addr, instrs: g.LoopOverhead})
		addr += uint64(g.LoopOverhead * g.InstrBytes)
	}
	body = block{addr: addr, instrs: g.BodyInstrsPerRef*len(n.Body) + g.BodyOverhead}
	return headers, body
}

// CodeBytes returns the static code footprint of the nest under the model.
func CodeBytes(n *loopir.Nest, g CodeGen) (int, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if err := n.Validate(); err != nil {
		return 0, err
	}
	headers, body := layoutBlocks(n, g)
	total := body.instrs
	for _, h := range headers {
		total += h.instrs
	}
	return total * g.InstrBytes, nil
}

// FetchTrace lowers the nest to its instruction-fetch trace: each
// iteration of loop level d fetches that level's header block, and each
// innermost iteration fetches the body block.
func FetchTrace(n *loopir.Nest, g CodeGen) (*trace.Trace, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	headers, body := layoutBlocks(n, g)
	tr := trace.New(1024)
	emit := func(b block) {
		for i := 0; i < b.instrs; i++ {
			tr.Append(trace.Ref{
				Addr: b.addr + uint64(i*g.InstrBytes),
				Kind: trace.Fetch,
				Size: uint8(g.InstrBytes),
			})
		}
	}
	env := make(map[string]int, len(n.Loops))
	var run func(depth int) error
	run = func(depth int) error {
		if depth == len(n.Loops) {
			emit(body)
			return nil
		}
		l := n.Loops[depth]
		lo, err := l.Lo.Eval(env)
		if err != nil {
			return err
		}
		hi, err := l.Hi.Eval(env)
		if err != nil {
			return err
		}
		for v := lo; v <= hi; v += l.Step {
			env[l.Var] = v
			emit(headers[depth])
			if err := run(depth + 1); err != nil {
				return err
			}
		}
		delete(env, l.Var)
		return nil
	}
	if err := run(0); err != nil {
		return nil, err
	}
	return tr, nil
}

// Explore sweeps instruction-cache configurations over the nest's fetch
// trace, reusing the §2.2 cycle and §2.3 energy models. Layout and tiling
// options are ignored (code placement is fixed); only the (T, L, S)
// dimensions of the options apply.
func Explore(n *loopir.Nest, g CodeGen, opts core.Options) ([]core.Metrics, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tr, err := FetchTrace(n, g)
	if err != nil {
		return nil, err
	}
	addBS := bus.MeasureTrace(tr, bus.Gray).AddBS()
	var out []core.Metrics
	seen := map[core.ConfigPoint]bool{}
	for _, p := range opts.Space() {
		p.Tiling = 1
		if seen[p] {
			continue
		}
		seen[p] = true
		cfg := cachesim.DefaultConfig(p.CacheSize, p.LineSize, p.Assoc)
		st, err := cachesim.RunTrace(cfg, tr)
		if err != nil {
			return nil, err
		}
		cyc, err := cycles.Count(cycles.Params{Assoc: p.Assoc, LineBytes: p.LineSize, TilingSize: 1},
			st.Hits, st.Misses)
		if err != nil {
			return nil, err
		}
		en, err := energy.Total(opts.Energy, cfg, addBS, st.Hits, st.Misses)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Metrics{
			CacheSize: p.CacheSize,
			LineSize:  p.LineSize,
			Assoc:     p.Assoc,
			Tiling:    1,
			Accesses:  st.Accesses,
			Hits:      st.Hits,
			Misses:    st.Misses,
			MissRate:  st.MissRate(),
			Cycles:    cyc,
			EnergyNJ:  en,
			AddBS:     addBS,
		})
	}
	return out, nil
}

// JointChoice is a combined instruction- and data-cache selection.
type JointChoice struct {
	Instr core.Metrics
	Data  core.Metrics
}

// TotalEnergy returns the summed energy of the pair.
func (j JointChoice) TotalEnergy() float64 { return j.Instr.EnergyNJ + j.Data.EnergyNJ }

// TotalCycles returns the summed cycles of the pair (fetch and data
// pipelines accounted independently, as in split-cache embedded cores).
func (j JointChoice) TotalCycles() float64 { return j.Instr.Cycles + j.Data.Cycles }

// TotalSize returns the combined on-chip capacity.
func (j JointChoice) TotalSize() int { return j.Instr.CacheSize + j.Data.CacheSize }

// ExploreJoint merges an instruction-cache sweep and a data-cache sweep
// under a shared on-chip budget M (the paper's outer loop): it returns
// the minimum-energy (instruction, data) pair with combined capacity
// ≤ budgetBytes. ok is false when no pair fits.
func ExploreJoint(instr, data []core.Metrics, budgetBytes int) (JointChoice, bool) {
	if len(instr) == 0 || len(data) == 0 {
		return JointChoice{}, false
	}
	// Keep only the energy-minimal entry per cache size on each side,
	// then scan size pairs.
	bestBySize := func(ms []core.Metrics) map[int]core.Metrics {
		best := map[int]core.Metrics{}
		for _, m := range ms {
			if b, ok := best[m.CacheSize]; !ok || m.EnergyNJ < b.EnergyNJ {
				best[m.CacheSize] = m
			}
		}
		return best
	}
	iBest := bestBySize(instr)
	dBest := bestBySize(data)
	var iSizes, dSizes []int
	for s := range iBest {
		iSizes = append(iSizes, s)
	}
	for s := range dBest {
		dSizes = append(dSizes, s)
	}
	sort.Ints(iSizes)
	sort.Ints(dSizes)
	var out JointChoice
	found := false
	for _, is := range iSizes {
		for _, ds := range dSizes {
			if budgetBytes > 0 && is+ds > budgetBytes {
				continue
			}
			c := JointChoice{Instr: iBest[is], Data: dBest[ds]}
			if !found || c.TotalEnergy() < out.TotalEnergy() {
				out = c
				found = true
			}
		}
	}
	return out, found
}
