package apsp

import "testing"

// The min-plus kernel's rate at gph_apsp's size: one lattice node (a
// 300-element row update) and the whole sequential reference.
// ns/minplus is wall time over min-plus steps.

var sinkRow []int32
var sinkGraph Graph

func BenchmarkUpdateRow300(b *testing.B) {
	const n = 300
	g := RandomGraph(n, 7, 100, 50)
	ctx := &nopCtx{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRow = UpdateRow(ctx, 1, g[i%n], g[(i+1)%n], (i+1)%n)
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
