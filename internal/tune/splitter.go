// Package tune holds the native runtime's lazy binary splitter
// (Splitter.ParSum), which carves an interval into sparks of a pinned
// grain at execution time. The grain is set before a run and never
// moves during it, as the paper's runtime options are.
//
// The package is runtime-agnostic: it imports neither internal/native
// nor internal/nativeeden.
package tune

import (
	"parhask/internal/exec"
	"parhask/internal/graph"
)

// Splitter carves an interval into sparks of a fixed grain (items per
// spark) by lazy binary splitting: a range wider than the grain sparks
// its upper half and recurses into the lower, so the spark tree is
// built where the work runs instead of as a chunk list up front. The
// benchmark's splitter probe compares it with sumEuler's fixed chunk
// list at the same grain.
type Splitter struct {
	grain int
}

// NewSplitter builds a splitter with `grain` items per leaf clamped to
// [minGrain, maxGrain]. A non-positive minGrain means 1; a maxGrain
// below minGrain means 1<<20 (or minGrain, if larger). The name only
// labels the splitter at its call site.
func NewSplitter(name string, grain, minGrain, maxGrain int) *Splitter {
	minGrain = max(minGrain, 1)
	if maxGrain < minGrain {
		maxGrain = max(1<<20, minGrain)
	}
	return &Splitter{grain: min(max(grain, minGrain), maxGrain)}
}

// ParSum evaluates sum(leaf(lo', hi') over a partition of [lo,hi)) with
// lazy binary splitting: a range wider than the grain sparks its upper
// half and recurses into the lower. The spine forces sparked halves in
// reverse order so un-stolen sparks run newest-first in the owner's
// deque.
func (s *Splitter) ParSum(ctx exec.Ctx, lo, hi int, leaf func(exec.Ctx, int, int) int64) int64 {
	if lo >= hi {
		return 0
	}
	var rec func(ctx exec.Ctx, lo, hi int) int64
	rec = func(ctx exec.Ctx, lo, hi int) int64 {
		n := hi - lo
		if n <= s.grain {
			return leaf(ctx, lo, hi)
		}
		mid := lo + n/2
		upper := exec.NewThunk(ctx, func(c exec.Ctx) graph.Value { return rec(c, mid, hi) })
		ctx.Par(upper)
		left := rec(ctx, lo, mid)
		return left + ctx.Force(upper).(int64)
	}
	return rec(ctx, lo, hi)
}
