package loopir_test

import (
	"testing"

	"memexplore/internal/kernels"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
)

// BenchmarkGenerate measures address-stream generation throughput
// (Nest.Generate: compile, then generate): an untiled transpose, matmul
// tiled by 4 (inner loops of 4 iterations, the shape of most traces an
// optimized sweep generates) under the sequential layout, and the same
// nest under a padded §4.1 plan layout.
func BenchmarkGenerate(b *testing.B) {
	matmul, err := loopir.TileAll(kernels.MatMul(), 4)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := paddedPlan(matmul)
	if err != nil {
		b.Fatal(err)
	}
	legs := []struct {
		name string
		nest *loopir.Nest
		lay  loopir.Layout
	}{
		{"transpose", kernels.Transpose(64), loopir.SequentialLayout(kernels.Transpose(64), 0)},
		{"matmul-tile4", matmul, loopir.SequentialLayout(matmul, 0)},
		{"matmul-tile4-plan", matmul, plan},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			refs, err := leg.nest.References()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(refs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := leg.nest.Generate(leg.lay); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// paddedPlan returns the first §4.1 plan layout of n, over the default
// sweep's direct-mapped geometries, that pads a stride.
func paddedPlan(n *loopir.Nest) (loopir.Layout, error) {
	for _, l := range []int{4, 8, 16, 32, 64} {
		for _, size := range []int{64, 128, 256, 512, 1024} {
			plan, err := layout.Optimize(n, l, size/l)
			if err != nil {
				return nil, err
			}
			for _, p := range plan.Layout {
				if p.StrideBytes != nil {
					return plan.Layout, nil
				}
			}
		}
	}
	return nil, nil
}

// BenchmarkParse measures nest-text parsing.
func BenchmarkParse(b *testing.B) {
	src := kernels.Transpose(64).String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loopir.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
