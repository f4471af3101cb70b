//go:build !race

package matmul

import "parhask/internal/cpuid"

// useAVX2 selects mulAddPairLanes. It is the host's answer, read once;
// tests clear it to run the Go loop on the same host.
var useAVX2 = cpuid.AVX2()

// mulAddRowPair is mulAddRow on two result rows that share b and the
// column window: d0 += a0·b and d1 += a1·b, with len(d1) == len(d0).
//
// On an AVX2 host mulAddPairLanes runs the first len(b) &^ 3 terms of
// the first len(d0) &^ 3 columns of both rows, so each vector it loads
// from a row of b feeds both results; mulAddRow then adds the remaining
// terms of those columns and computes the last len(d0) mod 4 columns
// outright. Each element still gets its terms one at a time in
// ascending k, a multiply rounded and then an add rounded (no FMA), so
// the rows are mulAddRow's bit for bit. Without AVX2 both rows run
// mulAddRow.
func mulAddRowPair(d0, d1, a0, a1 []float64, b Mat, c0 int) {
	if !useAVX2 {
		mulAddRow(d0, a0, b, c0)
		mulAddRow(d1, a1, b, c0)
		return
	}
	w := len(d0)
	d1, a0, a1 = d1[:w], a0[:len(b)], a1[:len(b)]
	k4, w4 := len(b)&^3, w&^3
	for k := 0; k < k4; k += 4 {
		mulAddPairLanes(d0[:w4], d1[:w4],
			window(b[k], c0, w4), window(b[k+1], c0, w4), window(b[k+2], c0, w4), window(b[k+3], c0, w4),
			(*[4]float64)(a0[k:]), (*[4]float64)(a1[k:]))
	}
	mulAddRow(d0[:w4], a0[k4:], b[k4:], c0)
	mulAddRow(d1[:w4], a1[k4:], b[k4:], c0)
	if w4 < w { // the windows above already checked every row's length
		mulAddRow(d0[w4:], a0, b, c0+w4)
		mulAddRow(d1[w4:], a1, b, c0+w4)
	}
}

// mulAddPairLanes computes d0[j] += a0[0]·r0[j], then a0[1]·r1[j],
// a0[2]·r2[j] and a0[3]·r3[j], and d1[j] likewise with a1, for the
// first len(d0) &^ 3 elements; d1 and r0..r3 must be at least as long
// as d0. It needs AVX2.
//
//go:noescape
func mulAddPairLanes(d0, d1, r0, r1, r2, r3 []float64, a0, a1 *[4]float64)
