// Package strategies implements GpH evaluation strategies (§II-B):
// higher-order functions that describe the parallel evaluation degree of
// a value separately from the value itself, built from the two
// primitives par (Ctx.Par) and seq (forcing).
//
// In Haskell a Strategy a is a -> (), applied with `using`. Here a
// Strategy acts on a thunk in a runtime context; combinators build list
// strategies out of element strategies exactly like parList does.
package strategies

import (
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/rts"
)

// Strategy evaluates (part of) a thunk's value in a context. Strategies
// take the runtime-agnostic exec.Ctx, so the same combinators drive the
// virtual-time simulation (*rts.Ctx satisfies exec.Ctx) and the native
// work-stealing runtime.
type Strategy func(ctx exec.Ctx, t *graph.Thunk)

// RWHNF evaluates to weak head normal form (rwhnf).
func RWHNF(ctx exec.Ctx, t *graph.Thunk) { ctx.Force(t) }

// RNF evaluates to normal form (rnf): the thunk and everything reachable
// from its value.
func RNF(ctx exec.Ctx, t *graph.Thunk) { ctx.ForceDeep(t) }

// Thunk wraps a function over the simulated runtime context as a heap
// thunk. Simulation-only: the forcing thread's graph.Context must be an
// *rts.Ctx. Runtime-agnostic bodies use exec.Thunk instead.
func Thunk(f func(*rts.Ctx) graph.Value) *graph.Thunk {
	return graph.NewThunk(func(c graph.Context) graph.Value {
		return f(c.(*rts.Ctx))
	})
}

// ParList sparks the element strategy on every list element in parallel:
//
//	parList s (x:xs) = s x `par` parList s xs
//
// As in GpH, the sparked work is speculative: an idle capability may
// pick it up, or the consumer may end up evaluating the element itself
// (the spark then fizzles).
func ParList(s Strategy) func(ctx exec.Ctx, ts []*graph.Thunk) {
	return func(ctx exec.Ctx, ts []*graph.Thunk) {
		for _, t := range ts {
			// Sparking defers the element strategy: for rwhnf sparking
			// the thunk itself is exactly right; for deeper strategies a
			// wrapper thunk would be sparked. Our workloads' elements
			// evaluate to flat data, so WHNF == NF and the thunk itself
			// is always the right spark.
			ctx.Par(t)
		}
		_ = s
	}
}

// ParListWHNF sparks WHNF evaluation of every element (parList rwhnf).
func ParListWHNF(ctx exec.Ctx, ts []*graph.Thunk) {
	ParList(RWHNF)(ctx, ts)
}

// SeqList applies a strategy to every element in order (seqList).
func SeqList(s Strategy) func(ctx exec.Ctx, ts []*graph.Thunk) {
	return func(ctx exec.Ctx, ts []*graph.Thunk) {
		for _, t := range ts {
			s(ctx, t)
		}
	}
}

// ParMap is the classic strategic parallel map:
//
//	parMap strat f xs = map f xs `using` parList strat
//
// It builds one thunk per element, sparks them all, then forces and
// collects the results. Thunks are allocated through ctx
// (exec.NewThunk), so under the native runtime they come from the
// running worker's arena.
func ParMap(ctx exec.Ctx, f func(exec.Ctx, graph.Value) graph.Value, xs []graph.Value) []graph.Value {
	ts := make([]*graph.Thunk, len(xs))
	for i, x := range xs {
		x := x
		ts[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value { return f(c, x) })
	}
	ParListWHNF(ctx, ts)
	out := make([]graph.Value, len(ts))
	for i, t := range ts {
		out[i] = ctx.Force(t)
	}
	return out
}

// ParBuffer is GpH's parBuffer strategy: it keeps a sliding window of n
// sparks ahead of the consumer, sparking element i+n as element i is
// forced. Unlike ParList it bounds the speculative work in flight —
// right for long (or conceptually infinite) streams of work. It forces
// and returns every element's value.
func ParBuffer(ctx exec.Ctx, n int, ts []*graph.Thunk) []graph.Value {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n && i < len(ts); i++ {
		ctx.Par(ts[i])
	}
	out := make([]graph.Value, len(ts))
	for i := range ts {
		if i+n < len(ts) {
			ctx.Par(ts[i+n])
		}
		out[i] = ctx.Force(ts[i])
	}
	return out
}
