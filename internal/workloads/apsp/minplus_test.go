package apsp

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"parhask/internal/sim"
)

// minPlusLoop is the scalar min-plus loop, frozen here as the
// reference: minPlusRow must match it on every input, wraparound
// included, whichever implementation the build selected.
func minPlusLoop(out, row, pivot []int32, rik int32) {
	out, pivot = out[:len(row)], pivot[:len(row)]
	for j, r := range row {
		out[j] = min(r, rik+pivot[j])
	}
}

// checkMinPlusRow runs minPlusRow out of place and in place on row and
// pivot and compares both with minPlusLoop. Each output buffer carries a
// sentinel past len(row) that the kernel must leave alone.
func checkMinPlusRow(t *testing.T, row, pivot []int32, rik int32) {
	t.Helper()
	const sentinel = -7
	n := len(row)
	want := make([]int32, n)
	minPlusLoop(want, row, pivot, rik)

	out := make([]int32, n+1)
	out[n] = sentinel
	minPlusRow(out, row, pivot, rik)
	if !slices.Equal(out[:n], want) || out[n] != sentinel {
		t.Fatalf("n=%d rik=%d row=%v pivot=%v:\nminPlusRow = %v\nloop       = %v", n, rik, row, pivot, out, want)
	}

	inPlace := append(slices.Clone(row), sentinel)
	minPlusRow(inPlace, inPlace[:n], pivot, rik)
	if !slices.Equal(inPlace[:n], want) || inPlace[n] != sentinel {
		t.Fatalf("n=%d rik=%d in place: minPlusRow = %v, loop = %v", n, rik, inPlace, want)
	}
}

// TestMinPlusRowMatchesLoop covers every n mod 4 tail over several
// lane groups, at every 16-byte misalignment, with the distances a
// Floyd–Warshall stage meets: 0, Inf−1, Inf and values in between.
func TestMinPlusRowMatchesLoop(t *testing.T) {
	rng := sim.NewPRNG(37)
	dist := func() int32 {
		switch rng.Uint64() % 4 {
		case 0:
			return 0
		case 1:
			return Inf - 1
		case 2:
			return Inf
		}
		return int32(rng.Uint64() % uint64(Inf))
	}
	riks := []int32{0, 1, Inf / 2, Inf - 1}
	for range 8 {
		riks = append(riks, int32(rng.Uint64()%uint64(Inf)))
	}
	backing := make([]int32, 67+3)
	pivBacking := make([]int32, 67+3)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			row, pivot := backing[off:off+n], pivBacking[3-off:3-off+n]
			for j := range row {
				row[j], pivot[j] = dist(), dist()
			}
			for _, rik := range riks {
				checkMinPlusRow(t, row, pivot, rik)
			}
		}
	}
}

// TestMinPlusRowAnyInt32 runs the kernel on int32s from the whole
// range, at every 32-byte phase of the output and the row: negative
// distances and sums that wrap, which valid distances never reach,
// where an unsigned min or a saturating add would differ from the loop.
func TestMinPlusRowAnyInt32(t *testing.T) {
	rng := sim.NewPRNG(48)
	any32 := func() int32 {
		switch rng.Uint64() % 4 {
		case 0:
			return math.MinInt32 + int32(rng.Uint64()%4)
		case 1:
			return math.MaxInt32 - int32(rng.Uint64()%4)
		}
		return int32(rng.Uint64())
	}
	riks := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	for range 4 {
		riks = append(riks, any32())
	}
	backing := make([]int32, 67+7)
	pivBacking := make([]int32, 67+7)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			row, pivot := backing[off:off+n], pivBacking[7-off:7-off+n]
			for j := range row {
				row[j], pivot[j] = any32(), any32()
			}
			for _, rik := range riks {
				checkMinPlusRow(t, row, pivot, rik)
			}
		}
	}
}

// int32s decodes b as little-endian int32s, dropping a ragged tail.
func int32s(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// FuzzMinPlusRow feeds arbitrary int32 rows, pivots and rik, so sums
// that wrap and negative distances are in range: the kernel is the
// scalar loop bit for bit, not only on valid distances.
func FuzzMinPlusRow(f *testing.F) {
	le := func(vs ...int32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	}
	f.Add(le(0, 1, Inf-1, Inf, 5), le(Inf, 0, 2, Inf-1, 3), int32(4))
	f.Add(le(math.MaxInt32, math.MinInt32, -1, 0, 1, 2, 3, 4, 5), le(1, -1, math.MaxInt32, math.MinInt32, 0, 0, 0, 0, 9), int32(math.MaxInt32))
	f.Add(le(math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32), le(-1, -1, -1, -1), int32(math.MinInt32))
	f.Fuzz(func(t *testing.T, rowBytes, pivotBytes []byte, rik int32) {
		row, pivot := int32s(rowBytes), int32s(pivotBytes)
		if len(pivot) < len(row) {
			pivot = append(pivot, make([]int32, len(row)-len(pivot))...)
		}
		checkMinPlusRow(t, row, pivot, rik)
	})
}

// TestKernelTestsOnGoLoop runs the kernel tests again with useAVX2
// cleared, so an AVX2 host tests the Go loop that hosts without AVX2
// run as well as the assembly. Where useAVX2 is already false, the
// tests themselves ran the Go loop.
func TestKernelTestsOnGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel on this host or in this build: the kernel tests ran the Go loop")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	t.Run("TestMinPlusRowMatchesLoop", TestMinPlusRowMatchesLoop)
	t.Run("TestMinPlusRowAnyInt32", TestMinPlusRowAnyInt32)
	t.Run("TestRowUpdatesMatchNaiveLoops", TestRowUpdatesMatchNaiveLoops)
	t.Run("TestUpdateRowMatchesOracleStage", TestUpdateRowMatchesOracleStage)
}
