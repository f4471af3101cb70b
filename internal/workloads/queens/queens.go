// Package queens implements the N-queens solution counter as a dynamic
// search-tree workload for the masterWorker skeleton — the
// backtracking/branch-and-bound usage the paper names for masterWorker
// (§II-A, with reference [19]). Tasks are board prefixes; a worker
// either expands a prefix into new tasks (dynamic task creation) or, at
// the sequential depth, counts the completions itself.
//
// The search is computed for real; virtual cost is charged per actual
// node visited, so the tree's natural irregularity is genuine.
package queens

import (
	"parhask/internal/eden"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// NodeCost is the virtual cost of visiting one search-tree node.
const NodeCost = 30

// AllocPerNode is the heap allocated per visited node.
const AllocPerNode = 48

// Ctx is the slice of a runtime context the search needs.
type Ctx interface {
	Burn(ns int64)
	Alloc(bytes int64)
}

// prefix is a partial placement: column of the queen in each filled row.
type prefix struct {
	N    int
	Cols []int8
}

// PackedSize implements eden.Sized.
func (p prefix) PackedSize() int64 { return int64(len(p.Cols)) + 24 }

// DeepCopy implements eden.Sized.
func (p prefix) DeepCopy() (graph.Value, error) {
	p.Cols = eden.CloneSlice(p.Cols)
	return p, nil
}

// safe reports whether a queen at (len(cols), col) is unattacked.
func safe(cols []int8, col int8) bool {
	row := len(cols)
	for r, c := range cols {
		if c == col || int(c)-(row-r) == int(col) || int(c)+(row-r) == int(col) {
			return false
		}
	}
	return true
}

// countFrom exhaustively counts completions of the prefix, tallying
// visited nodes.
func countFrom(n int, cols []int8, visited *int64) int64 {
	if len(cols) == n {
		return 1
	}
	var total int64
	for col := int8(0); col < int8(n); col++ {
		*visited++
		if safe(cols, col) {
			total += countFrom(n, append(cols, col), visited)
		}
	}
	return total
}

// Count counts completions of a prefix with cost accounting.
func Count(ctx Ctx, n int, cols []int8) int64 {
	var visited int64
	total := countFrom(n, append([]int8(nil), cols...), &visited)
	ctx.Burn(visited * NodeCost)
	ctx.Alloc(visited * AllocPerNode)
	return total
}

// Known holds the solution counts for small boards (the oracle).
var Known = map[int]int64{4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724, 11: 2680, 12: 14200}

// EdenProgram counts n-queens solutions with a masterWorker farm:
// prefixes shorter than splitDepth expand into new tasks; deeper
// prefixes are solved sequentially by the worker.
func EdenProgram(n, workers, prefetch, splitDepth int) pe.Program {
	return func(p pe.Ctx) graph.Value {
		outs := skel.MasterWorker(p, "queens", workers, prefetch,
			func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
				pf := task.(prefix)
				if len(pf.Cols) >= splitDepth {
					return nil, Count(w, n, pf.Cols)
				}
				// Expand one level: each safe column is a new task.
				var subs []graph.Value
				for col := int8(0); col < int8(n); col++ {
					w.Burn(NodeCost)
					if safe(pf.Cols, col) {
						subs = append(subs, prefix{N: n, Cols: append(append([]int8(nil), pf.Cols...), col)})
					}
				}
				return subs, int64(0)
			}, []graph.Value{prefix{N: n}})
		var total int64
		for _, v := range outs {
			total += v.(int64)
		}
		return total
	}
}

// GpHProgram counts n-queens solutions with sparked sub-searches: the
// tree is expanded to splitDepth and each leaf prefix is sparked.
func GpHProgram(n, splitDepth int) func(*rts.Ctx) graph.Value {
	return func(ctx *rts.Ctx) graph.Value {
		var prefixes [][]int8
		var expand func(cols []int8)
		expand = func(cols []int8) {
			if len(cols) == splitDepth {
				prefixes = append(prefixes, append([]int8(nil), cols...))
				return
			}
			for col := int8(0); col < int8(n); col++ {
				ctx.Burn(NodeCost)
				if safe(cols, col) {
					expand(append(cols, col))
				}
			}
		}
		expand(nil)
		ts := make([]*graph.Thunk, len(prefixes))
		for i, pf := range prefixes {
			pf := pf
			ts[i] = strategies.Thunk(func(c *rts.Ctx) graph.Value {
				return Count(c, n, pf)
			})
		}
		strategies.ParListWHNF(ctx, ts)
		var total int64
		for _, t := range ts {
			total += ctx.Force(t).(int64)
		}
		return total
	}
}
