// Package matmul implements the paper's second benchmark (§V): dense
// matrix multiplication. The GpH version sparks regular blocks of the
// result matrix (block size — the spark granularity — is tunable, and
// blocks depend only on a subset of both inputs, unlike rows); the Eden
// version implements Cannon's algorithm on a torus topology skeleton,
// exchanging input blocks between neighbours round by round.
package matmul

import (
	"fmt"
	"math"

	"parhask/internal/sim"
)

// Mat is a dense row-major matrix.
type Mat [][]float64

// Ctx is the slice of a runtime context the mutator needs.
type Ctx interface {
	Burn(ns int64)
	Alloc(bytes int64)
}

// AllocPerElem is the heap allocated per produced result element
// (accumulator boxing and list/index overhead of the Haskell program).
const AllocPerElem = 24

// AllocPerMulAdd is the per-inner-step allocation (lazy arithmetic
// thunks); GHC's strictness analysis removes most of it, so it is small.
const AllocPerMulAdd = 2

// New returns an n×m zero matrix.
func New(n, m int) Mat {
	rows := make(Mat, n)
	backing := make([]float64, n*m)
	for i := range rows {
		rows[i], backing = backing[:m:m], backing[m:]
	}
	return rows
}

// Random returns a deterministic pseudo-random n×n matrix with entries
// in [0, 1).
func Random(n int, seed uint64) Mat {
	rng := sim.NewPRNG(seed)
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i][j] = float64(rng.Uint64()%1_000_000) / 1_000_000
		}
	}
	return m
}

// Bytes returns the resident size of an n×n matrix.
func Bytes(n int) int64 { return int64(n) * int64(n) * 8 }

// mulAddRow computes di[j] += Σ_k ai[k]·b[k][c0+j] for every j in di —
// one result row of a product, restricted to the column window starting
// at c0. It is the multiply-add loop in Go; mulAddRows, which the
// reference and both parallel forms call, runs it or the AVX2 row pair
// built on it, so the one-unit ÷ reference ratio measures the runtime
// and not two different kernels.
//
// k advances four rows of b at a time through mulAdd4, so each di[j] is
// loaded and stored once per four flops; the last len(b) mod 4 rows run
// the plain loop below. Every row of b is resliced to len(di) by window
// first, so a short row panics here and no loop reads past a checked
// length.
func mulAddRow(di, ai []float64, b Mat, c0 int) {
	ai, w := ai[:len(b)], len(di)
	k := 0
	for ; k+4 <= len(b); k += 4 {
		mulAdd4(di, window(b[k], c0, w), window(b[k+1], c0, w), window(b[k+2], c0, w), window(b[k+3], c0, w),
			ai[k], ai[k+1], ai[k+2], ai[k+3])
	}
	for ; k < len(b); k++ {
		a0, r0 := ai[k], window(b[k], c0, w)
		for j := range di {
			di[j] += a0 * r0[j]
		}
	}
}

// mulAddRows computes d[i][:w] += a[i]·b over the column window at c0
// for every row i of a: two rows at a time through mulAddRowPair, an
// odd last row through mulAddRow.
func mulAddRows(d, a, b Mat, c0, w int) {
	i := 0
	for ; i+1 < len(a); i += 2 {
		mulAddRowPair(d[i][:w], d[i+1][:w], a[i], a[i+1], b, c0)
	}
	if i < len(a) {
		mulAddRow(d[i][:w], a[i], b, c0)
	}
}

// window returns row[c0:c0+w]. The bound is checked against len(row) —
// a bare reslice is checked against cap — so a row too short for the
// window panics instead of yielding whatever lies behind it. The final
// [:w] states the length in the form every supported compiler's
// bounds-check elimination understands.
func window(row []float64, c0, w int) []float64 {
	row = row[:len(row):len(row)]
	return row[c0 : c0+w][:w]
}

// MulOracle is the plain host-side reference product (no cost model).
func MulOracle(a, b Mat) Mat {
	c := New(len(a), len(b[0]))
	mulAddRows(c, a, b, 0, len(b[0]))
	return c
}

// MulAddInto computes dst += a×b for equally-shaped square blocks,
// charging mulAddCost per multiply-add and the block's allocation. It is
// the mutator kernel of both parallel versions.
func MulAddInto(ctx Ctx, mulAddCost int64, dst, a, b Mat) {
	if len(a) == 0 {
		return
	}
	m := len(b[0])
	mulAddRows(dst, a, b, 0, m)
	ops := int64(len(b) * m)
	for range a {
		ctx.Burn(ops * mulAddCost)
		ctx.Alloc(ops*AllocPerMulAdd + int64(m)*AllocPerElem)
	}
}

// MulRange computes rows [r0,r1) × cols [c0,c1) of a×b into a fresh
// (r1-r0)×(c1-c0) block with cost accounting — the unit of work one GpH
// block spark performs.
func MulRange(ctx Ctx, mulAddCost int64, a, b Mat, r0, r1, c0, c1 int) Mat {
	out := New(r1-r0, c1-c0)
	mulAddRows(out, a[r0:r1], b, c0, c1-c0)
	ops := int64(len(b) * (c1 - c0))
	for range out {
		ctx.Burn(ops * mulAddCost)
		ctx.Alloc(ops*AllocPerMulAdd + int64(c1-c0)*AllocPerElem)
	}
	return out
}

// Block returns the block rows [r0,r1) × cols [c0,c1) of m as a view
// that shares m's elements: each row is a slice of m's row with its
// capacity capped at the block's width, so an append to a block row
// reallocates instead of writing into m. Sending the view copies it.
func Block(m Mat, r0, r1, c0, c1 int) Mat {
	out := make(Mat, r1-r0)
	for i := range out {
		out[i] = m[r0+i][c0:c1:c1]
	}
	return out
}

// Equal reports whether two matrices are element-wise equal within eps:
// each pair of elements is identical (so +Inf matches +Inf) or differs
// by at most eps. A NaN on either side never matches, so a product that
// went NaN fails every oracle that uses Equal.
func Equal(a, b Mat, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x != y && !(math.Abs(x-y) <= eps) {
				return false
			}
		}
	}
	return true
}

// Checksum folds a matrix to one number for cheap cross-run checks.
func Checksum(m Mat) float64 {
	var s float64
	for i := range m {
		for j := range m[i] {
			s += m[i][j] * float64((i+1)+(j+1)*31)
		}
	}
	return s
}

// blockDim validates that bs divides n and returns n/bs.
func blockDim(n, bs int) int {
	if bs <= 0 || n%bs != 0 {
		panic(fmt.Sprintf("matmul: block size %d must divide matrix size %d", bs, n))
	}
	return n / bs
}
