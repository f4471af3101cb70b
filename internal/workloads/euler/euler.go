// Package euler implements the paper's first benchmark (§V): sumEuler,
// the sum of the naïvely-computed Euler totient function φ(k) for all
// k ≤ n — "a simple map-reduce operation". φ(k) counts the j < k that
// are relatively prime to k, each test a full Euclid gcd.
//
// The computation is performed for real (results are checked against a
// linear totient sieve) while virtual time is charged per actual gcd
// iteration, so granularity is faithful to the Haskell program:
//
//	sum (map phi [1..n])
//	  where phi k = length (filter (relprime k) [1..k-1])
//
// The native kernel (PhiDirect) runs those gcds in uint32, four
// independent Euclid chains interleaved, so k must fit in a uint32; the
// simulator still charges each gcd's steps as the paper's gcd takes them.
package euler

import (
	"fmt"
	"math"
	"sync"

	"parhask/internal/graph"
)

// Ctx is the slice of a runtime context the mutator needs. Both
// *rts.Ctx and pe.Ctx satisfy it.
type Ctx interface {
	Burn(ns int64)
	Alloc(bytes int64)
}

// AllocPerJ is the heap allocated per inner-loop element (list cell +
// gcd closure in the Haskell program), in bytes.
const AllocPerJ = 24

// workSlices is how many Burn/Alloc slices each φ(k) is charged in, so
// heap checks interleave with computation as they would in compiled code.
const workSlices = 4

// phiEntry memoises one φ computation (host-side only: virtual costs are
// charged from the recorded iteration count on every simulated run).
type phiEntry struct {
	phi   int
	iters int64
}

// phiShardCount shards the memo cache so concurrent native workers
// (and parallel tests) don't serialise through one lock on the hottest
// path — with a single global mutex, every Phi call of every worker
// queued on the same cacheline. Power of two so the shard pick is a
// mask. A per-run dense sieve was the alternative, but the iteration
// counts the simulation charges can't be sieved, and the cache is
// deliberately cross-run (host-side memoisation), so sharding fits.
const phiShardCount = 64

// phiShard pads each lock+map pair to its own cache line so shard
// locks don't false-share.
type phiShard struct {
	mu sync.Mutex
	m  map[int]phiEntry
	_  [40]byte
}

var phiShards [phiShardCount]phiShard

// phiCounted computes φ(k) by trial gcd, counting loop iterations.
func phiCounted(k int) phiEntry {
	sh := &phiShards[k&(phiShardCount-1)]
	sh.mu.Lock()
	e, ok := sh.m[k]
	sh.mu.Unlock()
	if ok {
		return e
	}
	phi := 0
	var iters int64
	for j := 1; j < k; j++ {
		a, b := j, k
		for b != 0 {
			a, b = b, a%b
			iters++
		}
		if a == 1 {
			phi++
		}
	}
	if k == 1 {
		phi = 1 // φ(1) = 1 by convention
	}
	e = phiEntry{phi: phi, iters: iters}
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[int]phiEntry)
	}
	sh.m[k] = e
	sh.mu.Unlock()
	return e
}

// Phi computes φ(k) in a runtime context, charging the gcd iterations
// and the list allocation of the naïve Haskell definition.
func Phi(ctx Ctx, gcdIterCost int64, k int) int {
	e := phiCounted(k)
	burn := e.iters * gcdIterCost
	alloc := int64(k) * AllocPerJ
	for s := 0; s < workSlices; s++ {
		ctx.Alloc(alloc / workSlices)
		ctx.Burn(burn / workSlices)
	}
	return e.phi
}

// SumRange sums φ(k) for k in [lo, hi] in a runtime context.
func SumRange(ctx Ctx, gcdIterCost int64, lo, hi int) int64 {
	var sum int64
	for k := lo; k <= hi; k++ {
		sum += int64(Phi(ctx, gcdIterCost, k))
	}
	return sum
}

// gcd32 is Euclid's gcd, started at (a, b) with a ≥ b.
func gcd32(a, b uint32) uint32 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PhiDirect computes φ(k) by trial gcd with no memoisation and no
// virtual-cost accounting: the kernel the native runtime times for real.
// (The memo cache in Phi would turn repeated wall-clock runs into map
// lookups and destroy the measurement.)
//
// Every j < k still gets a full Euclid gcd(k, j) with the remainder
// sequence of the paper's gcd, but in uint32 and four j at a time: the
// four chains advance in lock step until one reaches zero, then each is
// finished alone by gcd32. The chains are independent, so their
// divides overlap instead of each waiting on the last one's latency.
// k must fit in a uint32 (ParseSpec caps n at 1<<24); PhiDirect panics
// above that rather than truncate.
func PhiDirect(k int) int {
	if k == 1 {
		return 1 // φ(1) = 1 by convention
	}
	if uint64(k) > math.MaxUint32 {
		panic(fmt.Sprintf("euler: PhiDirect(%d): k exceeds uint32", k))
	}
	kk := uint32(k)
	phi := 0
	j := uint32(1)
	for ; kk-j >= 4; j += 4 {
		a0, b0 := kk, j
		a1, b1 := kk, j+1
		a2, b2 := kk, j+2
		a3, b3 := kk, j+3
		for b0 != 0 && b1 != 0 && b2 != 0 && b3 != 0 {
			a0, b0 = b0, a0%b0
			a1, b1 = b1, a1%b1
			a2, b2 = b2, a2%b2
			a3, b3 = b3, a3%b3
		}
		for _, g := range [4]uint32{gcd32(a0, b0), gcd32(a1, b1), gcd32(a2, b2), gcd32(a3, b3)} {
			if g == 1 {
				phi++
			}
		}
	}
	for ; j < kk; j++ {
		if gcd32(kk, j) == 1 {
			phi++
		}
	}
	return phi
}

// SumRangeDirect sums φ(k) for k in [lo, hi] with the uncached kernel.
func SumRangeDirect(lo, hi int) int64 {
	var sum int64
	for k := lo; k <= hi; k++ {
		sum += int64(PhiDirect(k))
	}
	return sum
}

// PhiList computes φ(k) the way the paper's Haskell program does —
// length (filter (relprime k) [1..k-1]) — materialising the
// intermediate lists on the real heap. PhiDirect is the kernel for
// timing the scheduler (it allocates nothing); PhiList is the kernel
// for the §IV-A.1 allocation-area experiment, where the garbage the
// Haskell program produces per φ is the entire point: its collection
// frequency is what the allocation-area (GOGC) setting controls.
func PhiList(k int) int {
	if k == 1 {
		return 1 // φ(1) = 1 by convention
	}
	js := make([]int, 0, k-1) // [1..k-1]
	for j := 1; j < k; j++ {
		js = append(js, j)
	}
	rel := js[:0:0] // filter (relprime k)
	for _, j := range js {
		if gcd32(uint32(k), uint32(j)) == 1 {
			rel = append(rel, j)
		}
	}
	return len(rel)
}

// SumRangeList sums φ(k) for k in [lo, hi] with the list-allocating
// kernel.
func SumRangeList(lo, hi int) int64 {
	var sum int64
	for k := lo; k <= hi; k++ {
		sum += int64(PhiList(k))
	}
	return sum
}

// SumTotientSieve computes Σ φ(k), k ≤ n, with a linear sieve — the
// oracle the tests compare against.
func SumTotientSieve(n int) int64 {
	if n < 1 {
		return 0
	}
	phi := make([]int32, n+1)
	for i := range phi {
		phi[i] = int32(i)
	}
	for p := 2; p <= n; p++ {
		if phi[p] == int32(p) { // p is prime
			for m := p; m <= n; m += p {
				phi[m] -= phi[m] / int32(p)
			}
		}
	}
	var sum int64
	for k := 1; k <= n; k++ {
		sum += int64(phi[k])
	}
	return sum
}

// checkOpCost is the virtual cost per trial-division operation of the
// sequential result check.
const checkOpCost = 6

// SequentialCheck recomputes Σ φ(k) with the factorisation formula
// (trial division) — the "second sequential computation that is obvious
// at the end of each trace" in the paper's Fig. 2. It returns the sum
// and charges its (much smaller) cost to the calling thread.
func SequentialCheck(ctx Ctx, n int) int64 {
	var sum int64
	var ops int64
	for k := 1; k <= n; k++ {
		m := k
		phi := 1
		for p := 2; p*p <= m; p++ {
			ops++
			if m%p == 0 {
				pk := 1
				for m%p == 0 {
					m /= p
					pk *= p
					ops++
				}
				phi *= pk - pk/p
			}
		}
		if m > 1 {
			phi *= m - 1
		}
		sum += int64(phi)
		if ops > 4096 {
			ctx.Alloc(256)
			ctx.Burn(ops * checkOpCost)
			ops = 0
		}
	}
	ctx.Burn(ops * checkOpCost)
	return sum
}

// Range is a [Lo, Hi] slice of the input interval — the unit the
// parallel versions distribute.
type Range struct {
	Lo, Hi int
}

// PackedSize implements the Eden message-size interface.
func (r Range) PackedSize() int64 { return 32 }

// Ranges splits [1, n] into parts contiguous ranges.
func Ranges(n, parts int) []Range {
	if parts <= 0 {
		parts = 1
	}
	out := make([]Range, 0, parts)
	for i := 0; i < parts; i++ {
		lo := n*i/parts + 1
		hi := n * (i + 1) / parts
		if hi >= lo {
			out = append(out, Range{Lo: lo, Hi: hi})
		}
	}
	return out
}

// RangesValues is Ranges as []graph.Value for skeleton inputs.
func RangesValues(n, parts int) []graph.Value {
	rs := Ranges(n, parts)
	out := make([]graph.Value, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}
