package euler

import (
	"fmt"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// CheckError is the typed failure of the programs' built-in sequential
// self-check. Under message-fault injection a dropped stream element
// silently shortens the reduce input, so the parallel sum can lose
// chunks; panicking with a typed error lets the native runtimes'
// recover paths surface detected corruption as a structured failure
// (matchable with errors.As) rather than an anonymous panic.
type CheckError struct {
	Sum  int64
	Want int64
}

// Error implements error.
func (e *CheckError) Error() string {
	return fmt.Sprintf("euler: parallel sum %d != check %d", e.Sum, e.Want)
}

// Program is the runtime-agnostic GpH sumEuler program: split [1..n]
// into chunks, spark the sum of each chunk (parList rwhnf over
// sublists), fold the partial sums, then run the sequential result
// check of Fig. 2. It runs unchanged on the virtual-time simulation and
// on the native runtime.
//
// With direct=true the chunks use the uncached φ kernel and charge no
// virtual costs — the mode the native runtime times for real wall-clock
// speedups. With direct=false they use the memoised, cost-charged
// kernel the simulation needs.
func Program(n, chunks int, gcdIterCost int64, direct bool) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		sum := sparkSums(ctx, n, chunks, func(c exec.Ctx, r Range) int64 {
			if direct {
				return SumRangeDirect(r.Lo, r.Hi)
			}
			return SumRange(c, gcdIterCost, r.Lo, r.Hi)
		})
		if check := SequentialCheck(ctx, n); check != sum {
			panic(&CheckError{Sum: sum, Want: check})
		}
		return sum
	}
}

// AllocProgram is Program with the list-allocating φ kernel (PhiList):
// the same chunked map-reduce, but each φ(k) materialises its
// intermediate lists on the real heap as the Haskell source does. This
// is the body for the native allocation-area (GOGC) experiment — for
// n=15000 it allocates ~900 MB of immediately-dead slices per run, so
// how often the collector runs is set by the GC target, not by the
// mutator.
func AllocProgram(n, chunks int) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		return sparkSums(ctx, n, chunks, func(_ exec.Ctx, r Range) int64 { return SumRangeList(r.Lo, r.Hi) })
	}
}

// sparkSums splits [1..n] into chunks, sparks the sum of each chunk
// (parList rwhnf over sublists) and folds the partial sums.
func sparkSums(ctx exec.Ctx, n, chunks int, sum func(exec.Ctx, Range) int64) int64 {
	rs := Ranges(n, chunks)
	ts := make([]*graph.Thunk, len(rs))
	for i, r := range rs {
		ts[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value { return sum(c, r) })
	}
	strategies.ParListWHNF(ctx, ts)
	var total int64
	for _, t := range ts {
		total += ctx.Force(t).(int64)
	}
	return total
}

// GpHProgram is Program specialised to the simulated runtime (memoised,
// cost-charged kernel), kept for the simulation call sites.
func GpHProgram(n, chunks int, gcdIterCost int64) func(*rts.Ctx) graph.Value {
	p := Program(n, chunks, gcdIterCost, false)
	return func(ctx *rts.Ctx) graph.Value { return p(ctx) }
}

// EdenProgram is the Eden sumEuler program: the ready-made parMapReduce
// skeleton over chunk ranges (chunksPerPE chunks per PE; the paper's
// static split corresponds to chunksPerPE = 1), followed by the same
// sequential check.
func EdenProgram(n, chunksPerPE int, gcdIterCost int64) pe.Program {
	return func(p pe.Ctx) graph.Value {
		if chunksPerPE <= 0 {
			chunksPerPE = 4
		}
		inputs := RangesValues(n, p.PEs()*chunksPerPE)
		kvs := skel.ParMapReduce(p, "sumEuler",
			func(w pe.Ctx, in graph.Value) []skel.KV {
				r := in.(Range)
				return []skel.KV{{Key: 0, Val: SumRange(w, gcdIterCost, r.Lo, r.Hi)}}
			},
			func(w pe.Ctx, key graph.Value, vals []graph.Value) graph.Value {
				var s int64
				for _, v := range vals {
					s += v.(int64)
				}
				return s
			}, inputs)
		sum := kvs[0].Val.(int64)
		if check := SequentialCheck(p, n); check != sum {
			panic(&CheckError{Sum: sum, Want: check})
		}
		return sum
	}
}
