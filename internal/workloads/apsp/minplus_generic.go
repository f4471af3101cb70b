package apsp

// minPlusGo is the min-plus loop in Go: out[j] = min(row[j],
// rik+pivot[j]) for every j in row. It is the whole kernel off amd64,
// under the race detector (which sees none of the assembly's memory
// accesses) and on amd64 hosts without AVX2, and the tail after
// minPlusLanes on the rest. Both other operands are resliced to
// len(row) first, so the loop body compiles without bounds checks.
func minPlusGo(out, row, pivot []int32, rik int32) {
	out, pivot = out[:len(row)], pivot[:len(row)]
	for j, r := range row {
		out[j] = min(r, rik+pivot[j])
	}
}
