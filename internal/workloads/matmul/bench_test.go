package matmul

import "testing"

// The kernel's rate, in the three shapes the workloads run it: one
// Cannon step on a 96×96 block pair (eden_torus), the whole reference
// product, and one GpH block spark. ns/madd is wall time over
// multiply-adds, so the three are comparable with each other and with
// the simulator's per-multiply-add cost. Each runs as avx2 (where the
// host and build have that kernel) and as portable (the Go loop).

var sink Mat

// eachKernel runs bench as the sub-benchmark avx2, where useAVX2 is
// set, and as portable with it cleared.
func eachKernel(b *testing.B, bench func(b *testing.B)) {
	if useAVX2 {
		b.Run("avx2", bench)
	}
	b.Run("portable", func(b *testing.B) {
		defer func(host bool) { useAVX2 = host }(useAVX2)
		useAVX2 = false
		bench(b)
	})
}

func reportMulAdds(b *testing.B, perOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(perOp)), "ns/madd")
}

func BenchmarkMulAddInto96(b *testing.B) {
	eachKernel(b, func(b *testing.B) {
		const n = 96
		x, y, acc := Random(n, 1), Random(n, 2), New(n, n)
		ctx := &nopCtx{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulAddInto(ctx, 1, acc, x, y)
		}
		reportMulAdds(b, n*n*n)
		sink = acc
	})
}

func BenchmarkMulOracle384(b *testing.B) {
	eachKernel(b, func(b *testing.B) {
		const n = 384
		x, y := Random(n, 1), Random(n, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = MulOracle(x, y)
		}
		reportMulAdds(b, n*n*n)
	})
}

func BenchmarkMulRange48of192(b *testing.B) {
	eachKernel(b, func(b *testing.B) {
		const n, bs = 192, 48
		x, y := Random(n, 1), Random(n, 2)
		ctx := &nopCtx{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = MulRange(ctx, 1, x, y, bs, 2*bs, 2*bs, 3*bs)
		}
		reportMulAdds(b, bs*n*bs)
	})
}
