//go:build !amd64 || race

package apsp

// minPlusRow writes out[j] = min(row[j], rik+pivot[j]) for every j in
// row — the one min-plus kernel in the package (out may be row itself).
// Both other operands are resliced to len(row) first, so the loop body
// compiles without bounds checks.
//
// This loop is the kernel off amd64 and under the race detector, which
// sees none of the SSE2 loop's memory accesses (minplus_amd64.go).
func minPlusRow(out, row, pivot []int32, rik int32) {
	out, pivot = out[:len(row)], pivot[:len(row)]
	for j, r := range row {
		out[j] = min(r, rik+pivot[j])
	}
}
