// Package strategies implements the GpH evaluation strategy the
// paper's programs use (§II-B), parList rwhnf, from the two primitives
// par (Ctx.Par) and seq (forcing).
//
// In Haskell a Strategy a is a -> (), applied with `using`; the
// programs here only ever spark every element of a list to weak head
// normal form, so that one strategy is a plain function.
package strategies

import (
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/rts"
)

// Thunk wraps a function over the simulated runtime context as a heap
// thunk. Simulation-only: the forcing thread's graph.Context must be an
// *rts.Ctx. Runtime-agnostic bodies use exec.Thunk instead.
func Thunk(f func(*rts.Ctx) graph.Value) *graph.Thunk {
	return graph.NewThunk(func(c graph.Context) graph.Value {
		return f(c.(*rts.Ctx))
	})
}

// ParListWHNF sparks WHNF evaluation of every element (parList rwhnf):
//
//	parList rwhnf (x:xs) = x `par` parList rwhnf xs
//
// As in GpH, the sparked work is speculative: an idle capability may
// pick it up, or the consumer may end up evaluating the element itself
// (the spark then fizzles). Under rwhnf the spark is the element's
// thunk itself. It takes the runtime-agnostic exec.Ctx, so it drives
// both the virtual-time simulation (*rts.Ctx satisfies exec.Ctx) and
// the native work-stealing runtime.
func ParListWHNF(ctx exec.Ctx, ts []*graph.Thunk) {
	for _, t := range ts {
		ctx.Par(t)
	}
}
