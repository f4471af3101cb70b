package native

import (
	"runtime"
	"testing"

	"parhask/internal/exec"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/rts"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/fuzz"
	"parhask/internal/workloads/matmul"
)

// run is a test helper: execute main natively, failing the test on error.
func run(t *testing.T, cfg Config, main exec.Program) *Result {
	t.Helper()
	res, err := Run(cfg, main)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNativeSumEulerMatchesOracle(t *testing.T) {
	const n, chunks = 2000, 40
	want := euler.SumTotientSieve(n)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, eager := range []bool{true, false} {
			res := run(t, Config{Workers: workers, EagerBlackholing: eager},
				euler.Program(n, chunks, 0, true))
			if got := res.Value.(int64); got != want {
				t.Fatalf("workers=%d eager=%v: sum = %d, want %d", workers, eager, got, want)
			}
			if workers == 1 {
				continue
			}
			// Sanity on the counters: every chunk was sparked.
			if res.Stats.SparksCreated != int64(chunks) {
				t.Fatalf("workers=%d: sparks = %d, want %d", workers, res.Stats.SparksCreated, chunks)
			}
		}
	}
}

func TestNativeMatchesSimulatedRun(t *testing.T) {
	// The same program body, run on the simulated and the native runtime,
	// must produce the same value (the cross-runtime oracle).
	const n, chunks = 1500, 30
	simRes, err := gph.Run(gph.WorkStealingConfig(4), euler.GpHProgram(n, chunks, 14))
	if err != nil {
		t.Fatal(err)
	}
	natRes := run(t, NewConfig(4), euler.Program(n, chunks, 14, false))
	if simRes.Value.(int64) != natRes.Value.(int64) {
		t.Fatalf("sim = %d, native = %d", simRes.Value.(int64), natRes.Value.(int64))
	}
	if want := euler.SumTotientSieve(n); natRes.Value.(int64) != want {
		t.Fatalf("native = %d, sieve oracle = %d", natRes.Value.(int64), want)
	}
}

func TestNativeMatMulMatchesOracle(t *testing.T) {
	a, b := matmul.Random(64, 1), matmul.Random(64, 2)
	want := matmul.MulOracle(a, b)
	for _, workers := range []int{1, 4} {
		res := run(t, NewConfig(workers), matmul.BlockProgram(a, b, 16, 0))
		if !matmul.Equal(res.Value.(matmul.Mat), want, 1e-9) {
			t.Fatalf("workers=%d: native block matmul disagrees with oracle", workers)
		}
	}
	res := run(t, NewConfig(4), matmul.RowProgram(a, b, 0))
	if !matmul.Equal(res.Value.(matmul.Mat), want, 1e-9) {
		t.Fatal("native row matmul disagrees with oracle")
	}
}

func TestNativeAPSPBothPoliciesCorrect(t *testing.T) {
	// Correctness first: under both black-holing policies the APSP result
	// must equal Floyd–Warshall exactly — lazy duplication wastes work
	// but can never corrupt a value (referential transparency + atomic
	// publish). Under eager claims the lattice nodes update their rows in
	// place, so the input graph must also come back untouched; at 2 and 4
	// workers a node writing a row another node still reads is a race
	// `go test -race` reports.
	g := apsp.RandomGraph(48, 7, 100, 50)
	in := apsp.Clone(g)
	want := apsp.FloydWarshall(g)
	for _, workers := range []int{1, 2, 4} {
		for _, eager := range []bool{true, false} {
			res := run(t, Config{Workers: workers, EagerBlackholing: eager}, apsp.Program(g, 0))
			if !apsp.Equal(res.Value.(apsp.Graph), want) {
				t.Fatalf("workers=%d eager=%v: native APSP disagrees with Floyd–Warshall", workers, eager)
			}
			if !apsp.Equal(g, in) {
				t.Fatalf("workers=%d eager=%v: the run wrote to its input graph", workers, eager)
			}
			if eager && res.Stats.DupEntries != 0 {
				t.Fatalf("eager black-holing must prevent duplicate entries, got %d", res.Stats.DupEntries)
			}
		}
	}
}

// TestNativeAPSPEagerAllocGuard counts what one eager APSP job
// allocates: with nodes updating their rows in place, an n = 128 job
// holds n² arena thunks and slab nodes but only 2n rows — about 115 B a
// node, where closure nodes with boxed row values took about 186 and a
// fresh row per node about 700. The bound is a byte count, not a time;
// the lazy policy copies every row and gets none of it.
func TestNativeAPSPEagerAllocGuard(t *testing.T) {
	const n = 128
	res := run(t, Config{Workers: 1, EagerBlackholing: true}, apsp.Program(apsp.RandomGraph(n, 7, 100, 50), 0))
	if res.GC.Shared {
		t.Fatal("another run overlapped this one; its allocation count is not its own")
	}
	t.Logf("%d B a lattice node", res.GC.BytesAlloc/(n*n))
	if limit := int64(144 * n * n); res.GC.BytesAlloc > limit {
		t.Fatalf("one eager n=%d APSP job allocated %d bytes, want <= %d (144 B a lattice node)", n, res.GC.BytesAlloc, limit)
	}
}

// TestNativeAPSPLazyExact races the lazy lattice on any host: four
// workers, however few cores, over several graphs. Lazy evaluations
// return fresh nodes, so a duplicate evaluator never writes a node
// another reads; a broken rule shows as a wrong distance or a race
// report under -race.
func TestNativeAPSPLazyExact(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := apsp.RandomGraph(40, seed, 100, 40)
		in := apsp.Clone(g)
		want := apsp.FloydWarshall(g)
		res := run(t, Config{Workers: 4, EagerBlackholing: false}, apsp.Program(g, 0))
		if !apsp.Equal(res.Value.(apsp.Graph), want) {
			t.Fatalf("seed %d: lazy native APSP disagrees with Floyd–Warshall", seed)
		}
		if !apsp.Equal(g, in) {
			t.Fatalf("seed %d: the run wrote to its input graph", seed)
		}
	}
}

func TestNativeAPSPLazyDuplicates(t *testing.T) {
	// The paper's §IV-A.3 effect on real cores: with lazy black-holing
	// the shared pivot thunks are entered concurrently and evaluation is
	// duplicated; the duplicates must be observable in the counters while
	// the result stays exact. Duplication is a race-window phenomenon, so
	// retry a few times before concluding anything.
	if runtime.NumCPU() < 4 {
		t.Skip("needs >= 4 CPUs to provoke concurrent thunk entry")
	}
	g := apsp.RandomGraph(64, 11, 100, 60)
	want := apsp.FloydWarshall(g)
	var dups int64
	for attempt := 0; attempt < 8 && dups == 0; attempt++ {
		res := run(t, Config{Workers: runtime.NumCPU(), EagerBlackholing: false}, apsp.Program(g, 0))
		if !apsp.Equal(res.Value.(apsp.Graph), want) {
			t.Fatal("lazy black-holing corrupted the APSP result")
		}
		dups += res.Stats.DupEntries
	}
	if dups == 0 {
		t.Skip("no duplicate entry provoked in 8 runs (machine too idle or too serial)")
	}
	t.Logf("lazy black-holing duplicated %d thunk entries (results exact)", dups)
}

func TestNativeFuzzCrossRuntime(t *testing.T) {
	// Satellite 3: the random thunk-DAG generator through the native
	// runtime must agree with the host-side reference evaluation for
	// every seed, worker count and black-holing policy.
	for seed := uint64(1); seed <= 12; seed++ {
		p := fuzz.Generate(seed, 80)
		want := p.Expected()
		for _, workers := range []int{1, 4, 8} {
			for _, eager := range []bool{true, false} {
				res := run(t, Config{Workers: workers, EagerBlackholing: eager}, p.Body())
				if got := res.Value.(int64); got != want {
					t.Fatalf("seed=%d workers=%d eager=%v: got %d, want %d",
						seed, workers, eager, got, want)
				}
			}
		}
	}
}

func TestNativeFuzzAgreesWithSimulation(t *testing.T) {
	// The same generated body on both runtimes.
	for seed := uint64(20); seed <= 24; seed++ {
		p := fuzz.Generate(seed, 60)
		simRes, err := gph.Run(gph.WorkStealingConfig(4), p.Main())
		if err != nil {
			t.Fatal(err)
		}
		natRes := run(t, NewConfig(4), p.Body())
		if simRes.Value.(int64) != natRes.Value.(int64) {
			t.Fatalf("seed=%d: sim = %d, native = %d", seed, simRes.Value, natRes.Value)
		}
	}
}

func TestNativeFork(t *testing.T) {
	// Fork runs bodies on real goroutines; a forked body communicates
	// through a thunk the main thread forces.
	res := run(t, NewConfig(4), func(ctx exec.Ctx) graph.Value {
		cell := graph.NewPlaceholder()
		exec.Fork(ctx, "producer", func(c exec.Ctx) {
			cell.Resolve(int64(41))
		})
		v := ctx.Force(cell).(int64)
		return v + 1
	})
	if res.Value.(int64) != 42 {
		t.Fatalf("got %v", res.Value)
	}
	if res.Stats.Forks != 1 {
		t.Fatalf("forks = %d", res.Stats.Forks)
	}
}

func TestNativeSparkPanicBecomesError(t *testing.T) {
	boom := exec.Thunk(func(c exec.Ctx) graph.Value { panic("boom") })
	_, err := Run(NewConfig(2), func(ctx exec.Ctx) graph.Value {
		ctx.Par(boom)
		return ctx.Force(boom)
	})
	if err == nil {
		t.Fatal("expected an error from the panicking spark")
	}
}

func TestNativeNilAndDudSparks(t *testing.T) {
	res := run(t, NewConfig(2), func(ctx exec.Ctx) graph.Value {
		ctx.Par(nil)
		ctx.Par(graph.NewValue(1))
		return int64(0)
	})
	if res.Stats.SparksDud != 2 {
		t.Fatalf("duds = %d, want 2", res.Stats.SparksDud)
	}
}

func TestNativeDefaultsToGOMAXPROCS(t *testing.T) {
	res := run(t, Config{EagerBlackholing: true}, func(ctx exec.Ctx) graph.Value {
		return int64(7)
	})
	if res.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d, want GOMAXPROCS=%d", res.Workers, runtime.GOMAXPROCS(0))
	}
	if res.WallNS <= 0 {
		t.Fatal("wall-clock time must be positive")
	}
}

func TestNativeSumEulerSpeedup(t *testing.T) {
	// Acceptance: a wall-clock speedup check — with >=4
	// workers the wall clock must beat 1 worker by >1.5x on a multicore
	// machine. Skip (not fail) where the hardware cannot show it.
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skip("needs >= 4 CPUs for a meaningful speedup")
	}
	const n, chunks = 6000, 120
	want := euler.SumTotientSieve(n)
	best := func(workers int) int64 {
		bestNS := int64(1 << 62)
		for i := 0; i < 3; i++ {
			res := run(t, NewConfig(workers), euler.Program(n, chunks, 0, true))
			if res.Value.(int64) != want {
				t.Fatalf("workers=%d: wrong sum", workers)
			}
			if res.WallNS < bestNS {
				bestNS = res.WallNS
			}
		}
		return bestNS
	}
	seq := best(1)
	par := best(4)
	speedup := float64(seq) / float64(par)
	t.Logf("sumEuler n=%d: 1 worker %.1fms, 4 workers %.1fms, speedup %.2fx",
		n, float64(seq)/1e6, float64(par)/1e6, speedup)
	if speedup < 1.5 {
		t.Errorf("speedup = %.2fx, want > 1.5x on %d CPUs", speedup, runtime.NumCPU())
	}
}

// Interface checks: the same *rts.Ctx-based simulation satisfies the
// runtime-agnostic interface the native contexts implement.
var (
	_ exec.Ctx    = (*rts.Ctx)(nil)
	_ exec.Forker = (*Ctx)(nil)
)
