package mandel

import "testing"

// BenchmarkRow renders the 128×96 serve image and reports ns/iter: wall
// time over the escape-time iterations the render charges (the step the
// cost model's IterCost prices).
func BenchmarkRow(b *testing.B) {
	p := DefaultParams(128, 96)
	ctx := &nopCtx{}
	Render(ctx, p)
	iters := ctx.burned / IterCost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(ctx, p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*iters), "ns/iter")
}
