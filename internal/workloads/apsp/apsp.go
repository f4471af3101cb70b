// Package apsp implements the paper's third benchmark (§V): all-pairs
// shortest paths on a weighted directed graph — "a genuinely parallel
// algorithm". The Eden version pipelines Floyd–Warshall pivot rows
// around a process ring (adapted from Plasmeijer & van Eekelen); the GpH
// version builds the lattice of row-update thunks and sparks the final
// rows, relying on the runtime to synchronise the concurrent evaluations
// of the shared pivot rows — the program whose performance collapses
// without eager black-holing (Fig. 5).
package apsp

import (
	"parhask/internal/sim"
)

// Inf is the "no edge" distance; small enough that Inf+Inf cannot
// overflow int32.
const Inf int32 = 1 << 28

// Graph is a dense distance matrix (row-major, int32 distances).
type Graph [][]int32

// Ctx is the slice of a runtime context the mutator needs.
type Ctx interface {
	Burn(ns int64)
	Alloc(bytes int64)
}

// AllocPerElem is the heap allocation charged per updated row element.
const AllocPerElem = 8

// RandomGraph generates a deterministic random directed graph with n
// nodes: each ordered pair gets an edge of weight 1..maxw with
// probability density/100, and the diagonal is zero. The graph includes
// a Hamiltonian cycle so it is strongly connected.
func RandomGraph(n int, seed uint64, maxw int32, density int) Graph {
	rng := sim.NewPRNG(seed)
	g := make(Graph, n)
	backing := make([]int32, n*n)
	for i := range g {
		g[i], backing = backing[:n:n], backing[n:]
		for j := range g[i] {
			switch {
			case i == j:
				g[i][j] = 0
			case int(rng.Uint64()%100) < density:
				g[i][j] = int32(rng.Uint64()%uint64(maxw)) + 1
			default:
				g[i][j] = Inf
			}
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if i != j && g[i][j] == Inf {
			g[i][j] = int32(rng.Uint64()%uint64(maxw)) + 1
		}
	}
	return g
}

// Clone deep-copies a graph.
func Clone(g Graph) Graph {
	n := len(g)
	out := make(Graph, n)
	backing := make([]int32, n*n)
	for i := range g {
		out[i], backing = backing[:n:n], backing[n:]
		copy(out[i], g[i])
	}
	return out
}

// minPlusRow writes out[j] = min(row[j], rik+pivot[j]) for every j in
// row — the one min-plus loop in the package (out may be row itself).
// Both other operands are resliced to len(row) first, so the loop body
// compiles without bounds checks.
func minPlusRow(out, row, pivot []int32, rik int32) {
	out, pivot = out[:len(row)], pivot[:len(row)]
	for j, r := range row {
		out[j] = min(r, rik+pivot[j])
	}
}

// FloydWarshall is the sequential oracle (no cost accounting).
func FloydWarshall(g Graph) Graph {
	d := Clone(g)
	for k, dk := range d {
		for _, di := range d {
			if dik := di[k]; dik < Inf {
				minPlusRow(di, di, dk, dik)
			}
		}
	}
	return d
}

// UpdateRow computes one Floyd–Warshall row update: given row i after
// stage k-1 and the pivot row k after stage k-1, it returns row i after
// stage k, charging one min-plus operation per element. This is the
// mutator kernel of both parallel versions.
func UpdateRow(ctx Ctx, minPlusCost int64, row, pivot []int32, k int) []int32 {
	return updateRow(ctx, minPlusCost, make([]int32, len(row)), row, pivot, k)
}

// updateRow is UpdateRow writing into out, which may be row itself (a
// lattice node that owns its input row); the charges are UpdateRow's
// either way.
func updateRow(ctx Ctx, minPlusCost int64, out, row, pivot []int32, k int) []int32 {
	n := len(row)
	if rik := row[k]; rik < Inf {
		minPlusRow(out, row, pivot, rik)
	} else {
		copy(out, row)
	}
	ctx.Burn(int64(n) * minPlusCost)
	ctx.Alloc(int64(n)*AllocPerElem + 24)
	return out
}

// UpdateRowInPlace is UpdateRow without the copy, for block-owning
// versions (Eden ring nodes mutate their private rows).
func UpdateRowInPlace(ctx Ctx, minPlusCost int64, row, pivot []int32, k int) {
	if rik := row[k]; rik < Inf {
		minPlusRow(row, row, pivot, rik)
	}
	ctx.Burn(int64(len(row)) * minPlusCost)
	ctx.Alloc(24)
}

// Equal reports whether two graphs are identical.
func Equal(a, b Graph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Bytes returns the resident size of an n-node distance matrix.
func Bytes(n int) int64 { return int64(n) * int64(n) * 4 }

// Checksum folds a graph into one number for cheap comparisons.
func Checksum(g Graph) int64 {
	var s int64
	for i := range g {
		for j, v := range g[i] {
			if v < Inf {
				s += int64(v) * int64(i+j+1)
			}
		}
	}
	return s
}
