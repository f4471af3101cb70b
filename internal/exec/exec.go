// Package exec defines the runtime-agnostic mutator interface shared by
// the deterministic virtual-time simulation (internal/rts, internal/gph)
// and the native work-stealing backend (internal/native).
//
// A workload body written against exec.Ctx runs unchanged on both
// runtimes: under the simulation, Burn and Alloc charge virtual time and
// drive heap checks; under the native runtime they are no-ops and the
// body's *real* compute time is what the wall clock measures. Par, Force
// and ForceDeep keep their GpH meaning everywhere.
//
// The interface is factored from *rts.Ctx, which satisfies it
// structurally — simulated programs need no adapter. The native runtime
// implements it on its worker contexts.
package exec

import "parhask/internal/graph"

// Ctx is the runtime-agnostic execution context a program body receives.
type Ctx interface {
	// Burn consumes virtual mutator time (native: no-op — real time is
	// consumed by actually computing).
	Burn(ns int64)
	// Alloc accounts heap allocation and, under the simulation, performs
	// heap checks (native: no-op — Go's allocator and GC are real).
	Alloc(bytes int64)
	// Par records t as a spark that may be evaluated in parallel (GpH's
	// par combinator).
	Par(t *graph.Thunk)
	// Force evaluates a thunk to weak head normal form.
	Force(t *graph.Thunk) graph.Value
	// ForceDeep evaluates a value to normal form.
	ForceDeep(v graph.Value) graph.Value
}

// Program is a runtime-agnostic program body: the unit both RunGpH (via
// a delegating wrapper) and native.Run execute.
type Program func(Ctx) graph.Value

// ThunkAllocator is the optional allocator extension of Ctx: runtimes
// that implement it place new thunks in a context-owned allocation
// region (the native runtime's per-worker arenas) instead of the global
// heap. Program bodies never call it directly — they call the
// package-level NewThunk, which falls back to heap allocation on
// runtimes (and contexts) without an allocator.
type ThunkAllocator interface {
	Ctx
	// NewThunkAdapted allocates an unevaluated thunk computing
	// adapt(ctx, payload) from the context's allocation region.
	NewThunkAdapted(adapt graph.AdaptFn, payload any) *graph.Thunk
}

// Adapt is the shared graph.AdaptFn trampoline for exec-level thunk
// bodies: the payload is the body (a func(Ctx) graph.Value) and the
// forcing graph.Context must also implement exec.Ctx — both *rts.Ctx
// and the native worker context do. Building thunks through a shared
// trampoline instead of a per-thunk wrapper closure removes one heap
// allocation per thunk (func values are pointer-shaped, so the payload
// boxes into the `any` allocation-free).
func Adapt(c graph.Context, payload any) graph.Value {
	x, ok := c.(Ctx)
	if !ok {
		panic("exec: forcing context does not implement exec.Ctx")
	}
	return payload.(func(Ctx) graph.Value)(x)
}

// NewThunk builds a thunk for f, allocating through ctx when the
// runtime offers an allocation region (ThunkAllocator) and from the
// global heap otherwise. This is the allocator hook program bodies and
// strategies create their sparks through: under the native runtime the
// thunk comes from the running worker's arena; under the simulation
// (and on a resident native job's main thread, which owns no arena) it
// is a plain heap thunk.
func NewThunk(ctx Ctx, f func(Ctx) graph.Value) *graph.Thunk {
	if a, ok := ctx.(ThunkAllocator); ok {
		return a.NewThunkAdapted(Adapt, f)
	}
	return graph.NewThunkAdapted(Adapt, f)
}

// Thunk wraps f as a heap thunk whose computation runs under whichever
// runtime forces it: the graph.Context a forcing thread passes in must
// also implement exec.Ctx (both *rts.Ctx and the native worker context
// do). Context-free call sites (thunks built before a runtime exists)
// use this; bodies with a ctx in hand should prefer NewThunk.
func Thunk(f func(Ctx) graph.Value) *graph.Thunk {
	return graph.NewThunkAdapted(Adapt, f)
}
