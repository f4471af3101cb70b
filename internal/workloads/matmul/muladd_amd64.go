//go:build !race

package matmul

// mulAdd4 computes d[j] += a0·r0[j], then a1·r1[j], a2·r2[j] and
// a3·r3[j], for every j in d: four rows of b's multiply-adds into one
// result row.
//
// mulAddLanes does two adjacent j per SSE2 instruction; the code here
// finishes an odd last column. Each lane runs MULPD then ADDPD, one
// rounding each, in ascending k — the portable loop's operations in its
// order (muladd_generic.go) — so the result is that loop's bit for bit.
// There is no FMA and no reassociation. SSE2 is in the amd64 baseline:
// there is nothing to detect at run time.
func mulAdd4(d, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	n := len(d)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	mulAddLanes(d, r0, r1, r2, r3, a0, a1, a2, a3)
	if n&1 != 0 {
		j := n - 1
		x := d[j]
		x += a0 * r0[j]
		x += a1 * r1[j]
		x += a2 * r2[j]
		x += a3 * r3[j]
		d[j] = x
	}
}

// mulAddLanes is mulAdd4 on the first len(d) &^ 1 elements; r0..r3
// must be at least as long as d.
//
//go:noescape
func mulAddLanes(d, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64)
