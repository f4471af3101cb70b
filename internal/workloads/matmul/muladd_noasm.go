//go:build !amd64 || race

package matmul

// useAVX2 is false: this build has no AVX2 kernel. The tests read it to
// skip their AVX2 pass.
var useAVX2 = false

// mulAddRowPair is mulAddRow on two result rows that share b and the
// column window: d0 += a0·b and d1 += a1·b.
func mulAddRowPair(d0, d1, a0, a1 []float64, b Mat, c0 int) {
	mulAddRow(d0, a0, b, c0)
	mulAddRow(d1, a1, b, c0)
}
