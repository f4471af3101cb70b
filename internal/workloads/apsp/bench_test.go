package apsp

import "testing"

// The min-plus kernel's rate at gph_apsp's size: one lattice node's
// row update and the whole sequential reference. ns/minplus is wall
// time over min-plus steps.

var sinkGraph Graph

// BenchmarkUpdateRow300 times one 300-element row update in place, as
// an eager lattice node and an Eden ring node run it: no allocation,
// so ns/minplus is the kernel's rate.
func BenchmarkUpdateRow300(b *testing.B) {
	const n, k = 300, 1
	g := RandomGraph(n, 7, 100, 50)
	row, pivot := g[0], g[k]
	if row[k] >= Inf {
		b.Fatal("row 0 has no edge to the pivot, so the kernel would not run")
	}
	ctx := &nopCtx{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UpdateRowInPlace(ctx, 1, row, pivot, k)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/minplus")
}

func BenchmarkFloydWarshall300(b *testing.B) {
	const n = 300
	g := RandomGraph(n, 7, 100, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = FloydWarshall(g)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n*n*n), "ns/minplus")
}
