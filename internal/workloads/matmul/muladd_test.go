package matmul

import (
	"encoding/binary"
	"math"
	"testing"

	"parhask/internal/sim"
)

// mulAddLoop is the portable multiply-add row loop, frozen here as the
// reference: mulAddRow must match it bit for bit on every input,
// whichever implementation of the four-row step the build selected.
func mulAddLoop(di, ai []float64, b Mat, c0 int) {
	ai, w := ai[:len(b)], len(di)
	k := 0
	for ; k+4 <= len(b); k += 4 {
		a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
		r0, r1, r2, r3 := window(b[k], c0, w), window(b[k+1], c0, w), window(b[k+2], c0, w), window(b[k+3], c0, w)
		for j := range di {
			d := di[j]
			d += a0 * r0[j]
			d += a1 * r1[j]
			d += a2 * r2[j]
			d += a3 * r3[j]
			di[j] = d
		}
	}
	for ; k < len(b); k++ {
		a0, r0 := ai[k], window(b[k], c0, w)
		for j := range di {
			di[j] += a0 * r0[j]
		}
	}
}

// sameBits reports whether x and y are the same float64, except that
// any NaN matches any NaN: x86 passes a NaN payload through from one
// operand, and nothing here relies on payloads.
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// checkMulAddRow runs mulAddRow on a copy of di and compares it with
// mulAddLoop element by element. The row under test carries a sentinel
// past its end that the kernel must leave alone.
func checkMulAddRow(t *testing.T, di, ai []float64, b Mat, c0 int) {
	t.Helper()
	const sentinel = -7.5
	w := len(di)
	want := append([]float64(nil), di...)
	mulAddLoop(want, ai, b, c0)

	got := append(append(make([]float64, 0, w+1), di...), sentinel)
	mulAddRow(got[:w], ai, b, c0)
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("w=%d k=%d c0=%d: [%d] = %v (%#x), loop = %v (%#x)\ndi=%v\nai=%v\nb=%v",
				w, len(b), c0, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]), di, ai, b)
		}
	}
	if got[w] != sentinel {
		t.Fatalf("w=%d k=%d c0=%d: wrote %v past the row", w, len(b), c0, got[w])
	}
}

// TestMulAddRowMatchesLoop covers every window width 0..67 (every odd
// last column over several lane pairs), at column offsets 0..3 and with
// the result row at either 8-byte phase (every 16-byte misalignment of
// each operand), for inner dimensions 1..9 (every k-tail), on signed
// values, exact zeros, subnormals and infinities.
func TestMulAddRowMatchesLoop(t *testing.T) {
	rng := sim.NewPRNG(38)
	val := func() float64 {
		switch rng.Uint64() % 8 {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(int64(rng.Uint64()%2001)-1000) * 0x1p-1060 // subnormal
		case 3:
			return math.Inf(1 - 2*int(rng.Uint64()%2))
		}
		return float64(int64(rng.Uint64()%2_000_001)-1_000_000) / 999_983
	}
	fill := func(v []float64) {
		for j := range v {
			v[j] = val()
		}
	}
	const maxW, maxK = 67, 9
	for w := 0; w <= maxW; w++ {
		for c0 := 0; c0 < 4; c0++ {
			for off := 0; off < 2; off++ {
				for k := 1; k <= maxK; k++ {
					b := New(k, c0+w)
					for i := range b {
						fill(b[i])
					}
					ai := make([]float64, k)
					fill(ai)
					di := make([]float64, off+w)[off:]
					fill(di)
					checkMulAddRow(t, di, ai, b, c0)
				}
			}
		}
	}
}

// float64s decodes data as little-endian float64s, cycled to fill n
// values (zeros if data holds none).
func float64s(data []byte, n int) []float64 {
	v := make([]float64, n)
	if m := len(data) / 8; m > 0 {
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i%m):]))
		}
	}
	return v
}

// FuzzMulAddRow feeds arbitrary float64 bits — NaNs, infinities,
// subnormals, overflow — through every window shape: the kernel is the
// loop bit for bit, not only on the workloads' matrices.
func FuzzMulAddRow(f *testing.F) {
	le := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(1, -2, 0.5, 3), uint8(7), uint8(5), uint8(1))
	f.Add(le(math.Inf(1), 0, math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324), uint8(9), uint8(4), uint8(3))
	f.Add(le(0x1p-1074, -0x1p-1022, 0x1p-537, 0x1p537), uint8(67), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, w, k, c0 uint8) {
		nw, nk, nc := int(w)%68, int(k)%10, int(c0)%4
		vals := float64s(data, nw+nk+nk*(nc+nw))
		di, ai, rest := vals[:nw], vals[nw:nw+nk], vals[nw+nk:]
		b := New(nk, nc+nw)
		for i := range b {
			rest = rest[copy(b[i], rest):]
		}
		checkMulAddRow(t, di, ai, b, nc)
	})
}

// checkMulAddRows runs mulAddRows on copies of d's rows and compares
// each with mulAddLoop. Row i of the copy starts (off+i) mod 4 elements
// into its buffer, so successive rows sit at different 32-byte phases,
// and carries a sentinel past its end that the kernel must leave alone.
func checkMulAddRows(t *testing.T, d, a, b Mat, c0, off int) {
	t.Helper()
	const sentinel = -7.5
	w := len(d[0])
	got := make(Mat, len(d))
	for i, row := range d {
		o := (off + i) % 4
		buf := make([]float64, o+w+1)
		buf[o+w] = sentinel
		got[i] = buf[o : o+w]
		copy(got[i], row)
	}
	mulAddRows(got, a, b, c0, w)
	for i := range d {
		want := append([]float64(nil), d[i]...)
		mulAddLoop(want, a[i], b, c0)
		for j := range want {
			if !sameBits(got[i][j], want[j]) {
				t.Fatalf("avx2=%v rows=%d w=%d k=%d c0=%d off=%d: row %d [%d] = %v (%#x), loop = %v (%#x)\nd=%v\na=%v\nb=%v",
					useAVX2, len(d), w, len(b), c0, off, i, j, got[i][j], math.Float64bits(got[i][j]), want[j], math.Float64bits(want[j]), d, a, b)
			}
		}
		if s := got[i][:w+1][w]; s != sentinel {
			t.Fatalf("avx2=%v rows=%d w=%d k=%d c0=%d: row %d wrote %v past its end", useAVX2, len(d), w, len(b), c0, i, s)
		}
	}
}

// TestMulAddRowPairMatchesLoop runs the row-pair entry on two rows (a
// pair) and three (a pair and an odd last row) for every window width
// 0..67 (every column tail over several four-column groups), at column
// offsets 0..3 and at every 32-byte phase of the result rows, for inner
// dimensions 1..9 (every k-tail), on signed values, signed zeros,
// subnormals, infinities and NaNs.
func TestMulAddRowPairMatchesLoop(t *testing.T) {
	rng := sim.NewPRNG(48)
	val := func() float64 {
		switch rng.Uint64() % 10 {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(int64(rng.Uint64()%2001)-1000) * 0x1p-1060 // subnormal
		case 3:
			return math.Inf(1 - 2*int(rng.Uint64()%2))
		case 4:
			return math.NaN()
		}
		return float64(int64(rng.Uint64()%2_000_001)-1_000_000) / 999_983
	}
	fill := func(m Mat) Mat {
		for _, row := range m {
			for j := range row {
				row[j] = val()
			}
		}
		return m
	}
	const maxW, maxK = 67, 9
	for w := 0; w <= maxW; w++ {
		for c0 := 0; c0 < 4; c0++ {
			for off := 0; off < 4; off++ {
				for k := 1; k <= maxK; k++ {
					for rows := 2; rows <= 3; rows++ {
						b, a, d := fill(New(k, c0+w)), fill(New(rows, k)), fill(New(rows, w))
						checkMulAddRows(t, d, a, b, c0, off)
					}
				}
			}
		}
	}
}

// FuzzMulAddRowPair is FuzzMulAddRow for the row-pair entry: one to
// four result rows (pairs and an odd last row) of arbitrary float64
// bits at any 32-byte phase.
func FuzzMulAddRowPair(f *testing.F) {
	le := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(1, -2, 0.5, 3, 0.25), uint8(7), uint8(5), uint8(1), uint8(2), uint8(0))
	f.Add(le(math.Inf(1), 0, math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324), uint8(9), uint8(4), uint8(3), uint8(3), uint8(1))
	f.Add(le(0x1p-1074, -0x1p-1022, 0x1p-537, 0x1p537, math.Copysign(0, -1)), uint8(67), uint8(8), uint8(2), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, w, k, c0, rows, off uint8) {
		nw, nk, nc, nr := int(w)%68, int(k)%10, int(c0)%4, 1+int(rows)%4
		vals := float64s(data, nr*nw+nr*nk+nk*(nc+nw))
		fill := func(m Mat) Mat {
			for _, row := range m {
				vals = vals[copy(row, vals):]
			}
			return m
		}
		d, a, b := fill(New(nr, nw)), fill(New(nr, nk)), fill(New(nk, nc+nw))
		checkMulAddRows(t, d, a, b, nc, int(off))
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
	t.Run("TestMulAddRowPairMatchesLoop", TestMulAddRowPairMatchesLoop)
	t.Run("TestKernelsMatchNaiveLoopExactly", TestKernelsMatchNaiveLoopExactly)
	t.Run("TestShortRowPanics", TestShortRowPanics)
}

// TestEqualRejectsNaN: a NaN on either side is never equal, identical
// infinities are, and an infinity is not within any eps of a finite
// value.
func TestEqualRejectsNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		got, want float64
		eq        bool
	}{
		{nan, 1, false},
		{1, nan, false},
		{nan, nan, false},
		{inf, 1, false},
		{1, inf, false},
		{inf, math.Inf(-1), false},
		{inf, inf, true},
		{math.Inf(-1), math.Inf(-1), true},
		{1, 1 + 1e-12, true},
		{1, 1.5, false},
	} {
		got, want := Mat{{0, c.got}}, Mat{{0, c.want}}
		if eq := Equal(got, want, 1e-9); eq != c.eq {
			t.Errorf("Equal(%v, %v, 1e-9) = %v, want %v", c.got, c.want, eq, c.eq)
		}
	}
}
