package apsp

import (
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/tune"
)

// AutoProgram is Program with the final-stage forcing chunked by a
// tune.Splitter: the Floyd–Warshall thunk lattice is built exactly as
// in Program (shared pivot rows and all — the black-holing showcase is
// untouched), but instead of one spark per final row, contiguous row
// bands are carved by lazy binary splitting, so how many rows one
// spark forces follows the splitter's grain at execution time. Each
// leaf's service time — which includes the pivot chains it pulls in —
// feeds the controller through Observe.
func AutoProgram(g Graph, sp *tune.Splitter, minPlusCost int64) exec.Program {
	n := len(g)
	return func(ctx exec.Ctx) graph.Value {
		rows := lattice(ctx, g, minPlusCost)
		out := make(Graph, n)
		// Leaves only force their row bands — pure graph work, so a
		// duplicate entry under lazy black-holing recomputes a value
		// instead of racing on shared state. The spine then assembles
		// from the now-cached thunks, keeping every out[i] write on
		// one goroutine.
		sp.Each(ctx, 0, n, func(c exec.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Force(rows[i])
			}
		})
		for i := 0; i < n; i++ {
			out[i] = ctx.Force(rows[i]).(*node).row
		}
		return out
	}
}
