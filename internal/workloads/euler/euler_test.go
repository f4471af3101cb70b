package euler

import (
	"strconv"
	"testing"
	"testing/quick"

	"parhask/internal/eden"
	"parhask/internal/gph"
)

// nopCtx satisfies Ctx without a runtime (pure-function tests).
type nopCtx struct{ burned, alloced int64 }

func (n *nopCtx) Burn(ns int64) { n.burned += ns }
func (n *nopCtx) Alloc(b int64) { n.alloced += b }

func TestPhiSmallValues(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 9: 6, 10: 4, 12: 4}
	ctx := &nopCtx{}
	for k, w := range want {
		if got := Phi(ctx, 1, k); got != w {
			t.Errorf("phi(%d) = %d, want %d", k, got, w)
		}
	}
	if ctx.burned == 0 || ctx.alloced == 0 {
		t.Fatal("Phi charged no cost")
	}
}

func TestPhiKernelsAgree(t *testing.T) {
	// The three φ kernels — memoised (Phi), allocation-free (PhiDirect)
	// and list-allocating (PhiList, the GOGC-experiment kernel) — must
	// compute the same function. k ≤ 2000 covers every (k−1) mod 4, so
	// every tail length of PhiDirect's four-chain loop.
	ctx := &nopCtx{}
	for k := 1; k <= 2000; k++ {
		d, l, m := PhiDirect(k), PhiList(k), Phi(ctx, 1, k)
		if d != l || d != m {
			t.Fatalf("phi(%d): direct %d, list %d, memo %d", k, d, l, m)
		}
	}
	if got, want := SumRangeList(1, 600), SumTotientSieve(600); got != want {
		t.Fatalf("SumRangeList(1,600) = %d, want %d", got, want)
	}
	if got, want := SumRangeDirect(1, 5000), SumTotientSieve(5000); got != want {
		t.Fatalf("SumRangeDirect(1,5000) = %d, want %d", got, want)
	}
	// The largest k a spec can ask for (the n Param's max).
	if got := PhiDirect(1 << 24); got != 1<<23 {
		t.Fatalf("PhiDirect(1<<24) = %d, want %d", got, 1<<23)
	}
}

func TestPhiDirectPanicsAboveUint32(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed uint32")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PhiDirect(1<<32) did not panic")
		}
	}()
	PhiDirect(1 << 32)
}

func TestSimulatedChargesPinned(t *testing.T) {
	// The simulator charges the paper's gcd: Euclid started at (j, k),
	// so each j's first step is the swap. The native kernel's (k, j)
	// start must not leak into this count: a counter that drifts from
	// these values moves Fig. 1.
	var iters int64
	for k := 1; k <= 2000; k++ {
		iters += phiCounted(k).iters
	}
	if iters != 13947788 {
		t.Fatalf("Σ phiCounted(k ≤ 2000).iters = %d, want 13947788", iters)
	}
	ctx := &nopCtx{}
	SumRange(ctx, 18, 1, 2000)
	if ctx.burned != 251058184 || ctx.alloced != 48024000 {
		t.Fatalf("SumRange(18, 1, 2000) charged Burn %d Alloc %d, want 251058184 and 48024000",
			ctx.burned, ctx.alloced)
	}
}

func TestSieveMatchesNaive(t *testing.T) {
	ctx := &nopCtx{}
	for _, n := range []int{1, 2, 10, 100, 500} {
		if naive, sieve := SumRange(ctx, 1, 1, n), SumTotientSieve(n); naive != sieve {
			t.Errorf("n=%d: naive %d != sieve %d", n, naive, sieve)
		}
	}
}

func TestSequentialCheckMatchesSieve(t *testing.T) {
	ctx := &nopCtx{}
	for _, n := range []int{1, 7, 64, 300} {
		if got, want := SequentialCheck(ctx, n), SumTotientSieve(n); got != want {
			t.Errorf("n=%d: check %d != sieve %d", n, got, want)
		}
	}
}

func TestSumTotient15000Known(t *testing.T) {
	// Reference value computed independently (and stable across runs).
	if got := SumTotientSieve(15000); got != 68394316 {
		t.Fatalf("sumTotient(15000) = %d, want 68394316", got)
	}
}

func TestRangesPartitionProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw%5000) + 1
		parts := int(pRaw%64) + 1
		rs := Ranges(n, parts)
		next := 1
		for _, r := range rs {
			if r.Lo != next || r.Hi < r.Lo {
				return false
			}
			next = r.Hi + 1
		}
		return next == n+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGpHProgramCorrect(t *testing.T) {
	const n = 800
	cfg := gph.WorkStealingConfig(4)
	res, err := gph.Run(cfg, GpHProgram(n, 16, cfg.Costs.GCDIter))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != SumTotientSieve(n) {
		t.Fatalf("value = %v, want %d", res.Value, SumTotientSieve(n))
	}
	if res.Stats.SparksCreated == 0 {
		t.Fatal("no sparks created")
	}
}

func TestEdenProgramCorrect(t *testing.T) {
	const n = 800
	cfg := eden.NewConfig(4, 4)
	res, err := eden.Run(cfg, EdenProgram(n, 1, cfg.Costs.GCDIter))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != SumTotientSieve(n) {
		t.Fatalf("value = %v, want %d", res.Value, SumTotientSieve(n))
	}
	if res.Stats.Processes != 4 {
		t.Fatalf("processes = %d, want 4", res.Stats.Processes)
	}
}

func TestGpHSpeedup(t *testing.T) {
	const n = 2000
	cfg1 := gph.WorkStealingConfig(1)
	cfg8 := gph.WorkStealingConfig(8)
	r1, err := gph.Run(cfg1, GpHProgram(n, 32, cfg1.Costs.GCDIter))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := gph.Run(cfg8, GpHProgram(n, 32, cfg8.Costs.GCDIter))
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(r1.Elapsed) / float64(r8.Elapsed)
	if sp < 3.5 {
		t.Fatalf("speedup = %.2f, want >= 3.5", sp)
	}
}

func TestPhiCacheDoesNotAffectCosts(t *testing.T) {
	a := &nopCtx{}
	Phi(a, 7, 1234)
	b := &nopCtx{}
	Phi(b, 7, 1234) // second call hits the host-side cache
	if a.burned != b.burned || a.alloced != b.alloced {
		t.Fatalf("memoisation changed charged costs: %v vs %v", a, b)
	}
}

func TestEagerBlackholingCheapOnRegularPrograms(t *testing.T) {
	// §IV-A.3: "our preliminary measurements suggest that, on current
	// processor architectures, this carries little performance
	// disadvantage over lazy black-holing" — for programs without
	// pathological sharing, eager marking must cost almost nothing.
	const n = 3000
	mk := func(eager bool) int64 {
		cfg := gph.WorkStealingConfig(8)
		cfg.EagerBlackholing = eager
		res, err := gph.Run(cfg, GpHProgram(n, 60, cfg.Costs.GCDIter))
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != SumTotientSieve(n) {
			t.Fatal("wrong sum")
		}
		return res.Elapsed
	}
	lazy, eager := mk(false), mk(true)
	ratio := float64(eager) / float64(lazy)
	if ratio > 1.02 {
		t.Fatalf("eager black-holing costs %.1f%% on a regular program; paper says 'little disadvantage'",
			(ratio-1)*100)
	}
}
