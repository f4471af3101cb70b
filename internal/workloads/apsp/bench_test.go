package apsp

import (
	"fmt"
	"runtime"
	"testing"

	"parhask/internal/native"
)

// The min-plus kernel's rate at gph_apsp's size: one lattice node's
// row update and the whole sequential reference. ns/minplus is wall
// time over min-plus steps. Each runs as avx2 (where the host and build
// have that kernel) and as portable (the Go loop).

var sinkGraph Graph

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

// BenchmarkUpdateRow300 times one 300-element row update in place, as
// an eager lattice node and an Eden ring node run it: no allocation,
// so ns/minplus is the kernel's rate.
func BenchmarkUpdateRow300(b *testing.B) {
	eachKernel(b, func(b *testing.B) {
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
	})
}

func BenchmarkFloydWarshall300(b *testing.B) {
	eachKernel(b, func(b *testing.B) {
		const n = 300
		g := RandomGraph(n, 7, 100, 50)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkGraph = FloydWarshall(g)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n*n*n), "ns/minplus")
	})
}

// BenchmarkLattice300 times one GpH lattice job at gph_apsp's size on
// the native runtime at P = 1 and 2, against the sequential reference
// (ref). ns/node and B/node are wall time and heap allocation over the
// n² lattice nodes, so the reference's figures read as what the lattice
// costs beyond the kernel.
func BenchmarkLattice300(b *testing.B) {
	const n = 300
	g := RandomGraph(n, 7, 100, 60)
	want := FloydWarshall(g)
	perNode := func(b *testing.B, job func() Graph) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		var got Graph
		for i := 0; i < b.N; i++ {
			got = job()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if !Equal(got, want) {
			b.Fatal("the job disagrees with Floyd–Warshall")
		}
		nodes := float64(b.N) * n * n
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodes, "ns/node")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/nodes, "B/node")
	}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			perNode(b, func() Graph {
				res, err := native.Run(native.NewConfig(p), Program(g, 0))
				if err != nil {
					b.Fatal(err)
				}
				return res.Value.(Graph)
			})
		})
	}
	b.Run("ref", func(b *testing.B) {
		perNode(b, func() Graph { return FloydWarshall(g) })
	})
}
