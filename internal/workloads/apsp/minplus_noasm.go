//go:build !amd64 || race

package apsp

// useAVX2 is false: this build has no AVX2 kernel. The tests read it to
// skip their AVX2 pass.
var useAVX2 = false

// minPlusRow writes out[j] = min(row[j], rik+pivot[j]) for every j in
// row — the one min-plus kernel in the package (out may be row itself).
func minPlusRow(out, row, pivot []int32, rik int32) { minPlusGo(out, row, pivot, rik) }
