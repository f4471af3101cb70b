//go:build !race

package apsp

// minPlusRow writes out[j] = min(row[j], rik+pivot[j]) for every j in
// row — the one min-plus kernel in the package (out may be row itself).
//
// minPlusLanes does four distances per SSE2 instruction; the loop here
// finishes the last len(row) mod 4. PADDD wraps like an int32 add and
// PCMPGTD is min's signed compare, so the result is the portable loop's
// (minplus_generic.go) bit for bit on every input. SSE2 is in the amd64
// baseline: there is nothing to detect at run time.
func minPlusRow(out, row, pivot []int32, rik int32) {
	n := len(row)
	out, pivot = out[:n], pivot[:n]
	minPlusLanes(out, row, pivot, rik)
	for j := n &^ 3; j < n; j++ {
		out[j] = min(row[j], rik+pivot[j])
	}
}

// minPlusLanes is minPlusRow on the first len(row) &^ 3 elements; out
// and pivot must be at least as long as row.
//
//go:noescape
func minPlusLanes(out, row, pivot []int32, rik int32)
