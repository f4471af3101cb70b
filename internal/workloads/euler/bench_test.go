package euler

import (
	"sync/atomic"
	"testing"
)

// BenchmarkPhiSequential is the single-goroutine baseline for the memo
// cache: repeated Phi calls over a window of k values, all cache hits
// after the first pass.
func BenchmarkPhiSequential(b *testing.B) {
	ctx := &nopCtx{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Phi(ctx, 1, 1000+i%512)
	}
}

// BenchmarkPhiParallel hammers the memo cache from all procs at once —
// the contention profile the native runtime's workers produce. Before
// the cache was sharded, every call of every goroutine serialised
// through one global mutex; with 64 shards, concurrent calls for
// different k proceed independently.
func BenchmarkPhiParallel(b *testing.B) {
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		ctx := &nopCtx{}
		for pb.Next() {
			i := seq.Add(1)
			Phi(ctx, 1, int(1000+i%512))
		}
	})
}

// BenchmarkPhiParallelSameKey is the worst case for sharding: every
// goroutine asks for the same k, so all traffic lands on one shard and
// the benchmark measures pure lock hand-off on a cached entry.
func BenchmarkPhiParallelSameKey(b *testing.B) {
	b.RunParallel(func(pb *testing.PB) {
		ctx := &nopCtx{}
		for pb.Next() {
			Phi(ctx, 1, 1234)
		}
	})
}

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

// BenchmarkSumRangeDirect times the native φ kernel over k ∈ [1, 4000]
// and reports ns/gcdstep: wall time over the Euclid steps phiCounted
// counts for the same range (the step the cost model's GCDIter prices).
// It runs as avx2 (where the host and build have that kernel) and as
// portable (the Go lanes on the reciprocal table).
func BenchmarkSumRangeDirect(b *testing.B) {
	const n = 4000
	var steps int64
	for k := 1; k <= n; k++ {
		steps += phiCounted(k).iters
	}
	eachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SumRangeDirect(1, n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*steps), "ns/gcdstep")
	})
}
