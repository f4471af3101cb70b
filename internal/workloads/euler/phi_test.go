package euler

import "testing"

// phiByGcd is φ(k) counted the plain way: the j < k with gcd32(k, j) = 1.
func phiByGcd(k uint32) int {
	phi := 0
	for j := uint32(1); j < k; j++ {
		if gcd32(k, j) == 1 {
			phi++
		}
	}
	return phi
}

// checkPhiAVX2 compares PhiDirect(k), which runs phiAVX2 while useAVX2
// is set, with phiByGcd(k).
func checkPhiAVX2(t *testing.T, k uint32) {
	t.Helper()
	if got, want := PhiDirect(int(k)), phiByGcd(k); got != want {
		t.Fatalf("φ(%d): AVX2 kernel %d, gcd32 count %d", k, got, want)
	}
}

// TestPhiAVX2MatchesGcd runs the AVX2 kernel on every k in [2, 2000],
// so on every (k−1) mod 32 count of padded lanes in the last block,
// and at the top of its range, where a and b are near 2²⁴ and the
// float32 quotients are the least exact.
func TestPhiAVX2MatchesGcd(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel on this host or in this build: TestPhiKernelsAgree covers the Go loop")
	}
	for k := uint32(2); k <= 2000; k++ {
		checkPhiAVX2(t, k)
	}
	for _, k := range []uint32{maxTableK, maxTableK - 1, maxTableK - 3} {
		checkPhiAVX2(t, k)
	}
}

// FuzzPhiAVX2 runs the AVX2 kernel on any k in [2, 2²⁴]; other inputs
// wrap into that range.
func FuzzPhiAVX2(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 kernel on this host or in this build")
	}
	for _, k := range []uint32{2, 3, 32, 33, 34, 9999991, maxTableK - 1, maxTableK} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k uint32) {
		checkPhiAVX2(t, 2+(k-2)%(maxTableK-1))
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
	t.Run("TestPhiKernelsAgree", TestPhiKernelsAgree)
	t.Run("TestChunkingsAgree", TestChunkingsAgree)
}

// TestFloat32QuotientExact checks the fact phiAVX2 rests on: for
// 1 ≤ b ≤ a ≤ 2²⁴, trunc(float32(a)/float32(b)) = ⌊a/b⌋. Rounding is
// monotone, so a quotient that rounds up past an integer would do so at
// a = m·b − 1, the a nearest below a multiple of b; every such a for
// every b is checked, with no kernel in the way, so the Go loop's hosts
// check it too.
func TestFloat32QuotientExact(t *testing.T) {
	for b := uint32(1); b <= maxTableK; b++ {
		fb := float32(b)
		for a := 2*b - 1; a <= maxTableK; a += b {
			if q := uint32(float32(a) / fb); q != a/b {
				t.Fatalf("trunc(float32(%d)/float32(%d)) = %d, want %d", a, b, q, a/b)
			}
		}
	}
}
