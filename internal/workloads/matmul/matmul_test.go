package matmul

import (
	"fmt"
	"testing"
	"testing/quick"

	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/sim"
)

type nopCtx struct{ burned, alloced int64 }

func (n *nopCtx) Burn(ns int64) { n.burned += ns }
func (n *nopCtx) Alloc(b int64) { n.alloced += b }

// naiveMulAdd is the textbook triple loop, written here so the checks
// below share no code with mulAddRow: dst[i][j] += Σ_k a[i][k]·b[k][c0+j]
// with k ascending, one rounding per term.
func naiveMulAdd(dst, a, b Mat, c0 int) {
	for i := range dst {
		for j := range dst[i] {
			for k := range b {
				dst[i][j] += a[i][k] * b[k][c0+j]
			}
		}
	}
}

// randRect is an n×m matrix of signed values with exact zeros mixed in.
func randRect(n, m int, seed uint64) Mat {
	rng := sim.NewPRNG(seed)
	out := New(n, m)
	for i := range out {
		for j := range out[i] {
			if v := rng.Uint64() % 2_000_001; v%7 != 0 {
				out[i][j] = float64(v)/1_000_000 - 1
			}
		}
	}
	return out
}

// identical is Equal with no tolerance: the same bits, not a close sum.
func identical(t *testing.T, what string, got, want Mat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestKernelsMatchNaiveLoopExactly pins all three entry points to the
// naive loop bit for bit, at inner dimensions that hit every tail
// length of the four-way unrolled kernel and at windows with c0 != 0.
func TestKernelsMatchNaiveLoopExactly(t *testing.T) {
	const n, m = 9, 13
	for _, p := range []int{1, 3, 4, 5, 7, 96, 97} {
		a, b := randRect(n, p, uint64(p)), randRect(p, m, uint64(p)+100)

		want := New(n, m)
		naiveMulAdd(want, a, b, 0)
		identical(t, fmt.Sprintf("MulOracle p=%d", p), MulOracle(a, b), want)

		for _, w := range [][4]int{{0, n, 0, m}, {2, 7, 0, m}, {0, n, 5, 11}, {3, 4, 12, 13}, {1, 8, 1, 1}} {
			r0, r1, c0, c1 := w[0], w[1], w[2], w[3]
			want := New(r1-r0, c1-c0)
			naiveMulAdd(want, a[r0:r1], b, c0)
			ctx := &nopCtx{}
			got := MulRange(ctx, 1, a, b, r0, r1, c0, c1)
			identical(t, fmt.Sprintf("MulRange p=%d rows [%d,%d) cols [%d,%d)", p, r0, r1, c0, c1), got, want)
			if ops := int64((r1 - r0) * p * (c1 - c0)); ctx.burned != ops {
				t.Fatalf("MulRange p=%d window %v: burned = %d, want %d", p, w, ctx.burned, ops)
			}
		}

		acc, wantAcc := randRect(n, m, uint64(p)+200), randRect(n, m, uint64(p)+200)
		naiveMulAdd(wantAcc, a, b, 0)
		ctx := &nopCtx{}
		MulAddInto(ctx, 1, acc, a, b)
		identical(t, fmt.Sprintf("MulAddInto p=%d", p), acc, wantAcc)
		if ops := int64(n * p * m); ctx.burned != ops || ctx.alloced != ops*AllocPerMulAdd+n*m*AllocPerElem {
			t.Fatalf("MulAddInto p=%d: burned %d alloced %d for %d multiply-adds", p, ctx.burned, ctx.alloced, ops)
		}
	}
}

// TestShortRowPanics: a row of b shorter than the column window is a
// caller bug and must panic — its spare capacity is not readable data.
func TestShortRowPanics(t *testing.T) {
	for _, short := range []int{1, 6} { // one in a four-row step, one in the scalar tail
		a, b := randRect(4, 7, 1), randRect(7, 8, 2)
		b[short] = b[short][:5]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("b[%d] has 5 of 8 columns: MulRange over columns [2,8) did not panic", short)
				}
			}()
			MulRange(&nopCtx{}, 1, a, b, 0, 4, 2, 8)
		}()
	}
}

func TestMulRangeMatchesOracle(t *testing.T) {
	a, b := Random(16, 1), Random(16, 2)
	want := MulOracle(a, b)
	ctx := &nopCtx{}
	got := MulRange(ctx, 1, a, b, 0, 16, 0, 16)
	if !Equal(got, want, 1e-9) {
		t.Fatal("MulRange differs from oracle")
	}
	if ctx.burned != 16*16*16 {
		t.Fatalf("burned = %d, want %d", ctx.burned, 16*16*16)
	}
}

func TestMulRangeBlockAssembly(t *testing.T) {
	a, b := Random(12, 3), Random(12, 4)
	want := MulOracle(a, b)
	ctx := &nopCtx{}
	out := New(12, 12)
	for r0 := 0; r0 < 12; r0 += 4 {
		for c0 := 0; c0 < 12; c0 += 4 {
			blk := MulRange(ctx, 1, a, b, r0, r0+4, c0, c0+4)
			for i := range blk {
				copy(out[r0+i][c0:c0+4], blk[i])
			}
		}
	}
	if !Equal(out, want, 1e-9) {
		t.Fatal("blockwise assembly differs from oracle")
	}
}

func TestMulAddIntoAccumulates(t *testing.T) {
	a, b := Random(8, 5), Random(8, 6)
	ctx := &nopCtx{}
	acc := New(8, 8)
	MulAddInto(ctx, 1, acc, a, b)
	MulAddInto(ctx, 1, acc, a, b) // acc = 2·a×b
	want := MulOracle(a, b)
	for i := range want {
		for j := range want[i] {
			want[i][j] *= 2
		}
	}
	if !Equal(acc, want, 1e-9) {
		t.Fatal("MulAddInto does not accumulate")
	}
}

func TestGpHBlockProgramCorrect(t *testing.T) {
	const n, bs = 32, 8
	a, b := Random(n, 7), Random(n, 8)
	want := MulOracle(a, b)
	cfg := gph.WorkStealingConfig(4)
	cfg.ResidentBytes = 3 * Bytes(n)
	res, err := gph.Run(cfg, GpHBlockProgram(a, b, bs, cfg.Costs.MulAdd))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.(Mat), want, 1e-9) {
		t.Fatal("GpH block product incorrect")
	}
	if res.Stats.SparksCreated != (n/bs)*(n/bs) {
		t.Fatalf("sparks = %d, want %d", res.Stats.SparksCreated, (n/bs)*(n/bs))
	}
}

func TestGpHRowProgramCorrect(t *testing.T) {
	const n = 24
	a, b := Random(n, 9), Random(n, 10)
	want := MulOracle(a, b)
	cfg := gph.WorkStealingConfig(4)
	res, err := gph.Run(cfg, GpHRowProgram(a, b, cfg.Costs.MulAdd))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.(Mat), want, 1e-9) {
		t.Fatal("GpH row product incorrect")
	}
}

func TestEdenCannonCorrect(t *testing.T) {
	const n, q = 24, 3
	a, b := Random(n, 11), Random(n, 12)
	want := MulOracle(a, b)
	cfg := eden.NewConfig(q*q+1, 8)
	res, err := eden.Run(cfg, EdenCannonProgram(a, b, q, cfg.Costs.MulAdd))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.(Mat), want, 1e-9) {
		t.Fatal("Cannon product incorrect")
	}
	if res.Stats.Processes != q*q {
		t.Fatalf("processes = %d, want %d", res.Stats.Processes, q*q)
	}
	// Each node shifts A and B q-1 times: 2·q²·(q-1) block messages, plus
	// closes, inputs and results.
	if res.Stats.Messages < 2*q*q*(q-1) {
		t.Fatalf("messages = %d, want >= %d", res.Stats.Messages, 2*q*q*(q-1))
	}
}

func TestCannonVariousQ(t *testing.T) {
	const n = 24
	a, b := Random(n, 13), Random(n, 14)
	want := MulOracle(a, b)
	for _, q := range []int{1, 2, 4} {
		cfg := eden.NewConfig(q*q+1, 8)
		res, err := eden.Run(cfg, EdenCannonProgram(a, b, q, cfg.Costs.MulAdd))
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if !Equal(res.Value.(Mat), want, 1e-9) {
			t.Fatalf("q=%d: Cannon product incorrect", q)
		}
	}
}

func TestGpHBlockSpeedup(t *testing.T) {
	const n, bs = 128, 16
	a, b := Random(n, 15), Random(n, 16)
	mk := func(cores int) int64 {
		cfg := gph.WorkStealingConfig(cores)
		cfg.ResidentBytes = 3 * Bytes(n)
		res, err := gph.Run(cfg, GpHBlockProgram(a, b, bs, cfg.Costs.MulAdd))
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	t1, t4 := mk(1), mk(4)
	if sp := float64(t1) / float64(t4); sp < 2.5 {
		t.Fatalf("speedup = %.2f, want >= 2.5", sp)
	}
}

func TestChecksumSensitive(t *testing.T) {
	a := Random(8, 17)
	c1 := Checksum(a)
	a[3][4] += 0.5
	if Checksum(a) == c1 {
		t.Fatal("checksum insensitive to change")
	}
}

func TestRandomDeterministic(t *testing.T) {
	if !Equal(Random(10, 42), Random(10, 42), 0) {
		t.Fatal("Random not deterministic")
	}
	if Equal(Random(10, 42), Random(10, 43), 0) {
		t.Fatal("different seeds gave equal matrices")
	}
}

func TestBlockDimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dividing block size")
		}
	}()
	blockDim(10, 3)
}

func TestMulOracleIdentityProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		a := Random(n, seed)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id[i][i] = 1
		}
		return Equal(MulOracle(a, id), a, 1e-12) && Equal(MulOracle(id, a), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
