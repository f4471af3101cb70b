package matmul

// mulAdd4 computes d[j] += a0·r0[j], then a1·r1[j], a2·r2[j] and
// a3·r3[j], for every j in d: four rows of b's multiply-adds into one
// result row. The four terms are added to d one at a time, in ascending
// k, so each sum is rounded exactly as by the plain i-k-j loop, bit for
// bit. (Adding a0*r0[j] + a1*r1[j] + … first and then d would round
// differently.) The rows are resliced to len(d) so the loop compiles
// without bounds checks.
//
// This loop is the whole kernel off amd64, under the race detector
// (which sees none of the assembly's memory accesses) and on amd64
// hosts without AVX2, and everything mulAddPairLanes leaves on the rest
// (muladd_amd64.go).
func mulAdd4(d, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	r0, r1, r2, r3 = r0[:len(d)], r1[:len(d)], r2[:len(d)], r3[:len(d)]
	for j := range d {
		x := d[j]
		x += a0 * r0[j]
		x += a1 * r1[j]
		x += a2 * r2[j]
		x += a3 * r3[j]
		d[j] = x
	}
}
