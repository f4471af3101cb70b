//go:build !race

package euler

import "parhask/internal/cpuid"

// useAVX2 selects phiAVX2. It is the host's answer, read once; tests
// clear it to run the Go loop on the same host.
var useAVX2 = cpuid.AVX2()

// phiKernel is φ(k) for 2 ≤ k ≤ maxTableK. On an AVX2 host phiAVX2
// runs it and rt is not read (SumRangeDirect passes nil); without AVX2
// phiLanes runs it on rt, the reciprocal table.
func phiKernel(k uint32, rt []uint64) int {
	if useAVX2 {
		return phiAVX2(k)
	}
	return phiLanes(k, rt)
}

// phiAVX2 is φ(k) for 2 ≤ k ≤ maxTableK: phiLanes' Euclid remainder
// sequence for 32 j at once, in four vectors of eight int32 lanes. Each
// step takes q = trunc(float32(a)/float32(b)) and r = a − q·b. Every a
// is at most k ≤ 2²⁴, so a and b convert exactly, and q is exactly
// ⌊a/b⌋: for the rounded quotient to reach the integer n above
// a/b = n − ε, where 2^e < a/b < 2^(e+1), ε ≥ 1/b would have to be at
// most half the float32 spacing there, 2^(e−24), so b ≥ 2^(24−e) and
// a > 2^e·b ≥ 2²⁴. TestFloat32QuotientExact checks this at every
// a = m·b − 1 ≤ 2²⁴, the a nearest below each multiple of each b. A
// lane whose b has reached 0 divides by 1, gets remainder 0 and keeps
// its a through a mask; the last block pads j ≥ k with b = 0, whose gcd
// is k ≠ 1. It needs AVX2.
func phiAVX2(k uint32) int
