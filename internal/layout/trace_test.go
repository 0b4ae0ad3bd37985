package layout

import (
	"fmt"
	"slices"
	"testing"

	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// TestTracesMatchCheckedEvaluator checks every trace the guard and the
// sweeps generate — the sequential layout's and every distinct padded
// plan's over the default geometries — for every registered kernel ×
// tiling {1, 2, 4, 8, 16} against an oracle that takes each reference's
// indices from the nest's checked evaluator (Nest.Visit) and computes
// its address from the placement directly. -short and -race keep one
// tiling per kernel.
func TestTracesMatchCheckedEvaluator(t *testing.T) {
	tilings := []int{1, 2, 4, 8, 16}
	for ki, n := range kernels.All() {
		n := n
		bs := tilings
		if testing.Short() || raceEnabled {
			bs = tilings[ki%len(tilings) : ki%len(tilings)+1]
		}
		t.Run(n.Name, func(t *testing.T) {
			t.Parallel()
			for _, b := range bs {
				checkTraces(t, n, b)
			}
		})
	}
}

func checkTraces(t *testing.T, n *loopir.Nest, b int) {
	tn, err := loopir.TileAll(n, b)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, tn)
	seq, err := NewSequential(tn, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqTr, err := seq.Trace()
	if err != nil {
		t.Fatal(err)
	}
	o.check(t, "sequential", seqTr, loopir.SequentialLayout(tn, 0))
	classes, err := seq.reuseClasses()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range []int{4, 8, 16, 32, 64} {
		for _, size := range []int{16, 32, 64, 128, 256, 512, 1024} {
			if l >= size || b > size/l {
				continue
			}
			plan, err := assign(tn, classes, l, size/l)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprint(plan.Layout)
			if seen[key] {
				continue
			}
			seen[key] = true
			tr, err := seq.planTrace(plan.Layout)
			if err != nil {
				t.Fatal(err)
			}
			o.check(t, fmt.Sprintf("L%d sets %d", l, size/l), tr, plan.Layout)
			seq.Release(tr)
		}
	}
}

// oracle holds a nest's references as the checked evaluator visits
// them: the array (an index into the nest's arrays), the kind and the
// indices of each.
type oracle struct {
	n      *loopir.Nest
	arrays []int
	kinds  []trace.Kind
	idx    [][]int
}

func newOracle(t *testing.T, n *loopir.Nest) *oracle {
	o := &oracle{n: n}
	err := n.Visit(func(r loopir.Ref, idx []int) error {
		ai := slices.IndexFunc(n.Arrays, func(a loopir.Array) bool { return a.Name == r.Array })
		for d, v := range idx {
			if v < 0 || v >= n.Arrays[ai].Dims[d] {
				return fmt.Errorf("%s: index %d of %s out of range", n.Name, v, r)
			}
		}
		kind := trace.Read
		if r.Write {
			kind = trace.Write
		}
		o.arrays = append(o.arrays, ai)
		o.kinds = append(o.kinds, kind)
		o.idx = append(o.idx, slices.Clone(idx))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// check requires tr to be the nest's trace under lay.
func (o *oracle) check(t *testing.T, what string, tr *trace.Trace, lay loopir.Layout) {
	t.Helper()
	if tr.Len() != len(o.idx) {
		t.Fatalf("%s %s: %d references, the checked evaluator visits %d", o.n.Name, what, tr.Len(), len(o.idx))
	}
	bases := make([]uint64, len(o.n.Arrays))
	strides := make([][]int, len(o.n.Arrays))
	for ai, a := range o.n.Arrays {
		bases[ai] = lay[a.Name].Base
		if strides[ai] = lay[a.Name].StrideBytes; strides[ai] == nil {
			strides[ai] = a.RowStrides()
			for d := range strides[ai] {
				strides[ai][d] *= a.ElementBytes()
			}
		}
	}
	for i, got := range tr.Refs() {
		ai := o.arrays[i]
		addr := bases[ai]
		for d, v := range o.idx[i] {
			addr += uint64(v * strides[ai][d])
		}
		want := trace.Ref{Addr: addr, Kind: o.kinds[i], Size: uint8(o.n.Arrays[ai].ElementBytes())}
		if got != want {
			t.Fatalf("%s %s: reference %d is %+v, want %+v", o.n.Name, what, i, got, want)
		}
	}
}
