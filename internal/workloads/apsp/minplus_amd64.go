//go:build !race

package apsp

import "parhask/internal/cpuid"

// useAVX2 selects minPlusLanes. It is the host's answer, read once;
// tests clear it to run the Go loop on the same host.
var useAVX2 = cpuid.AVX2()

// minPlusRow writes out[j] = min(row[j], rik+pivot[j]) for every j in
// row — the one min-plus kernel in the package (out may be row itself).
//
// On an AVX2 host minPlusLanes does the first len(row) &^ 15 distances,
// sixteen an iteration, and minPlusGo the rest; without AVX2 minPlusGo
// does them all. VPADDD wraps like an int32 add and VPMINSD is a signed
// min, so the result is minPlusGo's bit for bit on every input.
func minPlusRow(out, row, pivot []int32, rik int32) {
	j := 0
	if useAVX2 {
		j = len(row) &^ 15
		minPlusLanes(out[:j], row[:j], pivot[:j], rik)
	}
	minPlusGo(out[j:], row[j:], pivot[j:], rik)
}

// minPlusLanes is minPlusRow on the first len(row) &^ 15 elements; out
// and pivot must be at least as long as row. It needs AVX2.
//
//go:noescape
func minPlusLanes(out, row, pivot []int32, rik int32)
