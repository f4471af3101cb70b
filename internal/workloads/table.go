package workloads

import (
	"fmt"
	"math"

	"parhask/internal/cost"
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/fuzz"
	"parhask/internal/workloads/mandel"
	"parhask/internal/workloads/matmul"
	"parhask/internal/workloads/parfib"
	"parhask/internal/workloads/queens"
)

// The defaults are the command lines' (the paper's problem sizes where
// it gives one). serve and cluster pass their own smaller sizes, their
// own generator constants and their own Eden shapes explicitly.
var table = []*Entry{
	{
		Name: "sumeuler", DefaultRTS: "steal", Oracle: "sieve oracle", title: "sumEuler [1..%d]",
		Params: []Param{
			{Name: "n", Default: 15000, Min: 1, Max: 1 << 24, Usage: "sum φ(k) for k in [1..n]"},
			{Name: "chunks", Default: 300, Min: 1, Max: 1 << 20, Usage: "GpH chunk count (the Eden program cuts 8 chunks per PE)"},
			{Name: "pechunks", Default: 8, Min: 1, Max: 1 << 16},
		},
		inputs: func(i *Instance) any { return i.Int("n") },
		// The native form uses the uncached φ kernel (real work on real
		// cores); the simulated one the memoised, cost-charged kernel.
		gph: func(i *Instance, _ any) exec.Program { return euler.Program(i.Int("n"), i.Int("chunks"), 0, true) },
		sim: func(i *Instance, _ any, c cost.Model) SimProgram {
			return euler.GpHProgram(i.Int("n"), i.Int("chunks"), c.GCDIter)
		},
		eden: func(i *Instance, _ any, c cost.Model) pe.Program {
			return euler.EdenProgram(i.Int("n"), i.Int("pechunks"), c.GCDIter)
		},
		reference: func(i *Instance, _ any) graph.Value { return euler.SumTotientSieve(i.Int("n")) },
		verify:    verifyInt64,
	},
	{
		Name: "matmul", DefaultRTS: "steal", Oracle: "sequential oracle", title: "matmul %[1]dx%[1]d",
		Params: []Param{
			{Name: "n", Default: 396, Min: 1, Max: 1 << 12, Usage: "matrix dimension"},
			{Name: "block", Default: 33, Min: 1, Max: 1 << 12, Usage: "GpH block size (spark granularity); must divide n"},
			{Name: "q", Default: 3, Min: 1, Max: 64, Usage: "Eden torus dimension (q x q processes); must divide n"},
			{Name: "seed", Default: 103, Max: math.MaxUint64},
		},
		shape: func(i *Instance) Shape {
			n, block, q := i.Int("n"), i.Int("block"), i.Int("q")
			s := Shape{ResidentBytes: 3 * matmul.Bytes(n), EdenProcs: q * q}
			if n%block != 0 {
				s.GpHFit = fmt.Errorf("block=%d does not divide n=%d", block, n)
			}
			if n%q != 0 {
				s.EdenFit = fmt.Errorf("torus dimension q=%d does not divide n=%d", q, n)
			}
			return s
		},
		inputs: func(i *Instance) any {
			n, seed := i.Int("n"), i.Val("seed")
			return [2]matmul.Mat{matmul.Random(n, seed), matmul.Random(n, seed+1)}
		},
		gph: func(i *Instance, in any) exec.Program {
			m := in.([2]matmul.Mat)
			return matmul.BlockProgram(m[0], m[1], i.Int("block"), 0)
		},
		sim: func(i *Instance, in any, c cost.Model) SimProgram {
			m := in.([2]matmul.Mat)
			return matmul.GpHBlockProgram(m[0], m[1], i.Int("block"), c.MulAdd)
		},
		variants: map[string]func(*Instance, any, cost.Model) SimProgram{
			// The row-parallel version the paper compares the blocks with.
			"rows": func(_ *Instance, in any, c cost.Model) SimProgram {
				m := in.([2]matmul.Mat)
				return matmul.GpHRowProgram(m[0], m[1], c.MulAdd)
			},
		},
		eden: func(i *Instance, in any, c cost.Model) pe.Program {
			m := in.([2]matmul.Mat)
			return matmul.EdenCannonProgram(m[0], m[1], i.Int("q"), c.MulAdd)
		},
		reference: func(_ *Instance, in any) graph.Value { m := in.([2]matmul.Mat); return matmul.MulOracle(m[0], m[1]) },
		verify:    verifyBy(func(a, b matmul.Mat) bool { return matmul.Equal(a, b, 1e-9) }, matmul.Checksum),
	},
	{
		Name: "apsp", DefaultRTS: "eden", Oracle: "Floyd–Warshall oracle", title: "apsp %d nodes",
		Params: []Param{
			{Name: "n", Default: 400, Min: 1, Max: 1 << 13, Usage: "number of graph nodes"},
			{Name: "ring", Max: 1 << 13, PerPE: true, Usage: "Eden ring size (0: one node per core / PE)"},
			{Name: "seed", Default: 105, Max: math.MaxUint64, Usage: "graph generator seed"},
			// Edge weights are 1..maxw, edge probability density/100. The
			// cap keeps n*maxw below apsp.Inf.
			{Name: "maxw", Default: 9, Min: 1, Max: 1 << 12},
			{Name: "density", Default: 25, Max: 100},
		},
		shape: func(i *Instance) Shape {
			s := Shape{ResidentBytes: 2 * apsp.Bytes(i.Int("n")), EdenProcs: i.Int("ring")}
			if s.EdenProcs == 0 {
				s.EdenFit = fmt.Errorf("ring=0: the ring size must be positive (pass the PE count)")
			}
			return s
		},
		inputs: func(i *Instance) any {
			return apsp.RandomGraph(i.Int("n"), i.Val("seed"), int32(i.Val("maxw")), i.Int("density"))
		},
		gph: func(_ *Instance, in any) exec.Program { return apsp.Program(in.(apsp.Graph), 0) },
		sim: func(_ *Instance, in any, c cost.Model) SimProgram { return apsp.GpHProgram(in.(apsp.Graph), c.MinPlus) },
		eden: func(i *Instance, in any, c cost.Model) pe.Program {
			return apsp.EdenRingProgram(in.(apsp.Graph), i.Int("ring"), c.MinPlus)
		},
		reference: func(_ *Instance, in any) graph.Value { return apsp.FloydWarshall(in.(apsp.Graph)) },
		verify:    verifyBy(apsp.Equal, apsp.Checksum),
	},
	{
		Name: "fuzz", DefaultRTS: "steal", Oracle: "host-side DAG evaluation", title: "fuzz DAG of %d nodes",
		Params: []Param{
			{Name: "n", Default: 200, Min: 1, Max: 1 << 20, Usage: "DAG nodes"},
			{Name: "seed", Default: 1, Max: math.MaxUint64, Usage: "generator seed"},
		},
		inputs:    func(i *Instance) any { return fuzz.Generate(i.Val("seed"), i.Int("n")) },
		gph:       func(_ *Instance, in any) exec.Program { return in.(*fuzz.Program).Body() },
		sim:       func(_ *Instance, in any, _ cost.Model) SimProgram { return in.(*fuzz.Program).Main() },
		reference: func(_ *Instance, in any) graph.Value { return in.(*fuzz.Program).Expected() },
		verify:    verifyInt64,
	},
	{
		Name: "mandel", DefaultRTS: "steal", Oracle: "sequential render", title: "mandel %d px wide",
		Params: []Param{
			{Name: "n", Default: 256, Min: 1, Max: 1 << 14, Usage: "image width in pixels (the height is 3/4 of it)"},
			{Name: "height", Max: 1 << 14}, // 0: 3n/4
		},
		inputs: func(i *Instance) any {
			w, h := i.Int("n"), i.Int("height")
			if h == 0 {
				h = max(1, w*3/4)
			}
			return mandel.DefaultParams(w, h)
		},
		gph: func(_ *Instance, in any) exec.Program { return mandel.Program(in.(mandel.Params)) },
		sim: func(_ *Instance, in any, _ cost.Model) SimProgram { return mandel.GpHProgram(in.(mandel.Params)) },
		eden: func(_ *Instance, in any, _ cost.Model) pe.Program {
			return func(px pe.Ctx) graph.Value { return mandel.EdenProgram(in.(mandel.Params), farmWorkers(px), 2)(px) }
		},
		reference: func(_ *Instance, in any) graph.Value { return mandel.Render(nopCtx{}, in.(mandel.Params)) },
		verify:    verifyBy(mandel.Equal, mandel.Checksum),
	},
	{
		Name: "parfib", DefaultRTS: "steal", Oracle: "iterative Fibonacci", title: "parfib %d",
		Params: []Param{
			{Name: "n", Default: 30, Min: 1, Max: 90, Usage: "Fibonacci index"},
			{Name: "cutoff", Default: 16, Max: 90, Usage: "sequential threshold"},
		},
		inputs:    func(i *Instance) any { return i.Int("n") },
		sim:       func(i *Instance, _ any, _ cost.Model) SimProgram { return parfib.Program(i.Int("n"), i.Int("cutoff")) },
		reference: func(i *Instance, _ any) graph.Value { return parfib.Fib(i.Int("n")) },
		verify:    verifyInt64,
	},
	{
		Name: "queens", DefaultRTS: "steal", Oracle: "known solution counts", title: "queens %d",
		Params: []Param{
			{Name: "n", Default: 12, Min: 1, Max: 20, Usage: "board size"},
			{Name: "cutoff", Default: 16, Max: 128, Usage: "split depth is cutoff/8+2"},
		},
		inputs: func(i *Instance) any { return i.Int("n") },
		sim: func(i *Instance, _ any, _ cost.Model) SimProgram {
			return queens.GpHProgram(i.Int("n"), i.Int("cutoff")/8+2)
		},
		eden: func(i *Instance, _ any, _ cost.Model) pe.Program {
			n, depth := i.Int("n"), i.Int("cutoff")/8+2
			return func(px pe.Ctx) graph.Value { return queens.EdenProgram(n, farmWorkers(px), 2, depth)(px) }
		},
		reference: func(i *Instance, _ any) graph.Value {
			if want, ok := queens.Known[i.Int("n")]; ok {
				return want
			}
			return queens.Count(nopCtx{}, i.Int("n"), nil) // past the table: sequential search
		},
		verify: verifyInt64,
	},
}

// verifyInt64 is the check of every workload whose result is one
// number: the summary is the number.
func verifyInt64(got, want graph.Value) (any, bool) {
	g, ok := got.(int64)
	return g, ok && g == want.(int64)
}

// verifyBy is the check of a workload whose result is a structure: it
// must have the reference's type and equal it; the summary is its
// checksum.
func verifyBy[T, S any](equal func(a, b T) bool, checksum func(T) S) func(got, want graph.Value) (any, bool) {
	return func(got, want graph.Value) (any, bool) {
		g, ok := got.(T)
		if !ok || !equal(g, want.(T)) {
			return nil, false
		}
		return checksum(g), true
	}
}

// farmWorkers is the master-worker farms' size: every PE but the
// master's, read from the runtime the way Eden programs read noPe.
func farmWorkers(px pe.Ctx) int { return max(1, px.PEs()-1) }
