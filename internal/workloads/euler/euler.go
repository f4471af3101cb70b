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
// The native kernel (SumRangeDirect, and PhiDirect for one k) runs those
// gcds in uint32, four Euclid chains in lock step, each remainder taken
// by multiplying with a reciprocal from a table built per call, so k
// must fit in a uint32; the simulator still charges each gcd's steps as
// the paper's gcd takes them.
package euler

import (
	"fmt"
	"math"
	"math/bits"
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

// maxTableK is the largest k whose φ runs on the reciprocal table: the
// largest n a workload spec accepts, so every k a spec can ask for takes
// the one kernel. What bounds it is the table's memory: a SumRangeDirect
// call over [lo, hi] holds min(hi, maxTableK) uint64s while it runs,
// 64 KiB at the benchmark's n = 8000 and 128 MiB at the cap, once per
// call running at the same time. Above the cap each j runs gcd32.
const maxTableK = 1 << 24

// recip is the multiplier rem takes for divisor d ≥ 1: ⌈2⁶⁴/d⌉ for
// d ≥ 2, which is ⌊(2⁶⁴−1)/d⌋ + 1, and 0 for d = 1, where that sum wraps.
func recip(d uint32) uint64 {
	return math.MaxUint64/uint64(d) + 1
}

// reciprocals returns rt[0..n) with rt[d] = recip(d) for d ≥ 1 and
// rt[0] = 0, so rt[0] = rt[1] = 0.
func reciprocals(n int) []uint64 {
	rt := make([]uint64, n)
	for d := 1; d < n; d++ {
		rt[d] = recip(uint32(d))
	}
	return rt
}

// rem is a mod b for any uint32 a, given r = rt[b]: Lemire, Kaser and
// Kurz's direct remainder ("Faster Remainder by Direct Computation",
// 2019), exact for every a and every b < 2³². It is 0 when b ≤ 1,
// where r = 0.
func rem(a, b uint32, r uint64) uint32 {
	hi, _ := bits.Mul64(r*uint64(a), uint64(b))
	return uint32(hi)
}

// phiLanes is φ(k) for 2 ≤ k ≤ maxTableK, given rt[d] = ⌈2⁶⁴/d⌉ for
// every d < k. Four j advance in lock step, each running Euclid's
// gcd(k, j) with the remainder sequence of the paper's gcd. A lane
// whose b has reached 0 keeps its a (the gcd) and gets remainder 0, so
// the round loop's one branch is its exit, taken when all four are
// done. The last group pads j ≥ k with b = 0, whose gcd is k ≠ 1.
func phiLanes(k uint32, rt []uint64) int {
	rt = rt[:k]
	phi := 0
	for j := uint32(1); j < k; j += 4 {
		a0, b0 := k, j
		a1, b1 := k, pad(j+1, k)
		a2, b2 := k, pad(j+2, k)
		a3, b3 := k, pad(j+3, k)
		for b0|b1|b2|b3 != 0 {
			r0 := rem(a0, b0, rt[b0])
			r1 := rem(a1, b1, rt[b1])
			r2 := rem(a2, b2, rt[b2])
			r3 := rem(a3, b3, rt[b3])
			a0, b0 = keep(a0, b0), r0
			a1, b1 = keep(a1, b1), r1
			a2, b2 = keep(a2, b2), r2
			a3, b3 = keep(a3, b3), r3
		}
		phi += isOne(a0) + isOne(a1) + isOne(a2) + isOne(a3)
	}
	return phi
}

// pad is j if j < k, else 0: a lane with nothing to compute.
func pad(j, k uint32) uint32 {
	if j >= k {
		return 0
	}
	return j
}

// keep is a Euclid step's next a: b, or a when b is 0, without a
// branch. (uint64(b)−1)>>32 is all ones exactly when b is 0.
func keep(a, b uint32) uint32 {
	return b | a&uint32((uint64(b)-1)>>32)
}

// isOne is 1 if g is 1, else 0, without a branch: g^1 is 0 exactly
// when g is 1, and only then does subtracting 1 set bit 63.
func isOne(g uint32) int {
	return int((uint64(g^1) - 1) >> 63)
}

// PhiDirect computes φ(k) by trial gcd with no memoisation and no
// virtual-cost accounting: the kernel the native runtime times for real.
// (The memo cache in Phi would turn repeated wall-clock runs into map
// lookups and destroy the measurement.) It is SumRangeDirect(k, k).
func PhiDirect(k int) int {
	return int(SumRangeDirect(k, k))
}

// SumRangeDirect sums φ(k) for k in [lo, hi] with the uncached kernel,
// phiLanes, on a reciprocal table it builds for this call alone. Every
// j < k gets a full Euclid gcd(k, j) with the remainder sequence of the
// paper's gcd, in uint32; k above maxTableK runs gcd32 per j. k must
// fit in a uint32; SumRangeDirect panics otherwise rather than truncate.
func SumRangeDirect(lo, hi int) int64 {
	if lo > hi {
		return 0
	}
	if uint64(lo) > math.MaxUint32 || uint64(hi) > math.MaxUint32 {
		panic(fmt.Sprintf("euler: φ over [%d, %d]: k exceeds uint32", lo, hi))
	}
	var rt []uint64
	if lo <= maxTableK {
		rt = reciprocals(min(hi, maxTableK))
	}
	var sum int64
	for k := lo; k <= hi; k++ {
		switch kk := uint32(k); {
		case k == 1:
			sum++ // φ(1) = 1 by convention
		case k <= maxTableK:
			sum += int64(phiLanes(kk, rt))
		default:
			for j := uint32(1); j < kk; j++ {
				if gcd32(kk, j) == 1 {
					sum++
				}
			}
		}
	}
	return sum
}

// PhiList computes φ(k) the way the paper's Haskell program does —
// length (filter (relprime k) [1..k-1]) — materialising the
// intermediate lists on the real heap. SumRangeDirect is the kernel for
// timing the scheduler (one table a call); PhiList is the kernel
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

// DeepCopy implements the Eden message interface: a Range holds no
// indirection, so it is its own copy.
func (r Range) DeepCopy() (graph.Value, error) { return r, nil }

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
