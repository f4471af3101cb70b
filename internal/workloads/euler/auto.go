package euler

import (
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/tune"
)

// AutoProgram is Program with the static chunk list replaced by a
// tune.Splitter: the interval [1, n] is carved by lazy binary
// splitting into leaves of at most the splitter's grain, sparked where
// they run instead of listed up front. Uses the uncached φ kernel (the
// mode the native runtime times for wall-clock speedups) and ends with
// the same sequential self-check. The benchmark's splitter probe
// compares it with Program at the same grain.
func AutoProgram(n int, sp *tune.Splitter) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		sum := sp.ParSum(ctx, 1, n+1, func(c exec.Ctx, lo, hi int) int64 {
			return SumRangeDirect(lo, hi-1) // ParSum ranges are [lo, hi)
		})
		if check := SequentialCheck(ctx, n); check != sum {
			panic(&CheckError{Sum: sum, Want: check})
		}
		return sum
	}
}
