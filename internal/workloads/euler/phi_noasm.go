//go:build !amd64 || race

package euler

// useAVX2 is false: this build has no AVX2 kernel. The tests read it to
// skip their AVX2 pass, and SumRangeDirect to build the reciprocal table.
var useAVX2 = false

// phiKernel is φ(k) for 2 ≤ k ≤ maxTableK, given the reciprocal table
// rt: phiLanes.
func phiKernel(k uint32, rt []uint64) int { return phiLanes(k, rt) }
