package native

import (
	"fmt"
	"testing"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/fuzz"
)

// TestNativeArenaCrossRuntimeOracle runs arena-allocating program
// bodies (every exec.NewThunk call goes through the owning worker's
// arena) against the host-side reference evaluation, across worker
// counts, black-holing policies and arena chunk sizes — including a
// chunk size of 1, which exercises the growth path on every single
// allocation.
func TestNativeArenaCrossRuntimeOracle(t *testing.T) {
	for seed := uint64(40); seed <= 45; seed++ {
		p := fuzz.Generate(seed, 100)
		want := p.Expected()
		for _, chunk := range []int{1, 7, graph.DefaultArenaChunk} {
			for _, workers := range []int{1, 4} {
				for _, eager := range []bool{true, false} {
					res := run(t, Config{Workers: workers, EagerBlackholing: eager, ArenaChunk: chunk}, p.Body())
					if got := res.Value.(int64); got != want {
						t.Fatalf("seed=%d chunk=%d workers=%d eager=%v: got %d, want %d",
							seed, chunk, workers, eager, got, want)
					}
					if res.GC.ArenaThunks == 0 {
						t.Fatalf("seed=%d chunk=%d: no thunks went through the arenas", seed, chunk)
					}
				}
			}
		}
	}
}

// TestNativeSparkConservation checks the spark-accounting invariant on
// real runs: every spark that entered a pool is accounted for exactly
// once — converted (picked up and forced), fizzled (picked up already
// evaluated) or leftover (still pooled when main returned).
func TestNativeSparkConservation(t *testing.T) {
	progs := map[string]exec.Program{
		"sumEuler": euler.Program(2000, 40, 0, true),
		"fuzz":     fuzz.Generate(99, 120).Body(),
	}
	for name, prog := range progs {
		for _, workers := range []int{1, 2, 8} {
			for _, eager := range []bool{true, false} {
				res := run(t, Config{Workers: workers, EagerBlackholing: eager}, prog)
				s := res.Stats
				got := s.SparksConverted + s.SparksFizzled + s.SparksLeftover
				if got != s.SparksCreated {
					t.Fatalf("%s workers=%d eager=%v: created %d != converted %d + fizzled %d + leftover %d",
						name, workers, eager, s.SparksCreated,
						s.SparksConverted, s.SparksFizzled, s.SparksLeftover)
				}
			}
		}
	}
}

// TestNativeArenaStealStress drives the arenas through the adversarial
// schedule: sparks that spark (nested Par from inside spark bodies), so
// stolen thunks allocate into the *thief's* arena while the victim
// keeps bump-allocating into its own, across 8 workers. Run under
// -race this is the data-race certificate for the owner-local
// allocation design; in any mode the result is checked exactly.
func TestNativeArenaStealStress(t *testing.T) {
	const outer, inner = 64, 16
	// Reference: each inner thunk is worth i*j, summed over all pairs.
	var want int64
	for i := 0; i < outer; i++ {
		for j := 0; j < inner; j++ {
			want += int64(i * j)
		}
	}
	for round := 0; round < 4; round++ {
		// Small chunks force frequent growth mid-steal.
		cfg := Config{Workers: 8, EagerBlackholing: round%2 == 0, ArenaChunk: 8}
		res := run(t, cfg, func(ctx exec.Ctx) graph.Value {
			outerThunks := make([]*graph.Thunk, outer)
			for i := 0; i < outer; i++ {
				i := i
				outerThunks[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
					// Runs on whichever worker converted the spark: its
					// arena takes these allocations.
					innerThunks := make([]*graph.Thunk, inner)
					for j := 0; j < inner; j++ {
						j := j
						innerThunks[j] = exec.NewThunk(c, func(cc exec.Ctx) graph.Value {
							return int64(i * j)
						})
					}
					for _, it := range innerThunks {
						c.Par(it)
					}
					var sum int64
					for _, it := range innerThunks {
						sum += c.Force(it).(int64)
					}
					return sum
				})
			}
			for _, ot := range outerThunks {
				ctx.Par(ot)
			}
			var total int64
			for _, ot := range outerThunks {
				total += ctx.Force(ot).(int64)
			}
			return total
		})
		if got := res.Value.(int64); got != want {
			t.Fatalf("round %d: got %d, want %d", round, got, want)
		}
		if res.GC.ArenaThunks < outer {
			t.Fatalf("round %d: only %d arena thunks for %d outer sparks", round, res.GC.ArenaThunks, outer)
		}
	}
}

// TestNativeForkedThreadsFallBackToHeap covers the allocator's escape
// hatch: a forked thread owns no worker, so its exec.NewThunk calls
// must fall back to plain heap allocation and still interoperate with
// worker-arena thunks through the injection queue.
func TestNativeForkedThreadsFallBackToHeap(t *testing.T) {
	res := run(t, NewConfig(4), func(ctx exec.Ctx) graph.Value {
		cell := graph.NewPlaceholder()
		exec.Fork(ctx, "producer", func(c exec.Ctx) {
			th := exec.NewThunk(c, func(cc exec.Ctx) graph.Value { return int64(21) })
			c.Par(th)
			cell.Resolve(c.Force(th).(int64) * 2)
		})
		return ctx.Force(cell)
	})
	if res.Value.(int64) != 42 {
		t.Fatalf("got %v", res.Value)
	}
}

// TestPopInjectReleasesPrefix is the white-box regression test for the
// injection-queue leak: consumed slots must be nilled immediately, and
// the dead prefix compacted away once it outweighs the live tail, so
// the backing array never retains thunks the runtime already ran.
func TestPopInjectReleasesPrefix(t *testing.T) {
	r := &rt{}
	mk := func(i int) *graph.Thunk {
		return graph.NewThunk(func(c graph.Context) graph.Value { return i })
	}
	const n = 100
	for i := 0; i < n; i++ {
		r.pushInject(mk(i), nil)
	}
	// Drain just past the compaction threshold; every consumed slot
	// behind injectHead must already be nil.
	for i := 0; i < injectCompactAt-1; i++ {
		if got, _ := r.popInject(); got == nil {
			t.Fatalf("pop %d: unexpected empty queue", i)
		}
		for j := 0; j < r.injectHead; j++ {
			if r.inject[j].t != nil {
				t.Fatalf("pop %d: consumed slot %d still holds a thunk", i, j)
			}
		}
	}
	if r.injectHead == 0 {
		t.Fatal("head should not have compacted yet: dead prefix below threshold")
	}
	// The next pops pass injectCompactAt; with 100-ish entries the dead
	// prefix can't outweigh the tail yet, so keep draining until the
	// compaction fires and check it slid the live tail down.
	compacted := false
	for i := injectCompactAt - 1; i < n; i++ {
		if got, _ := r.popInject(); got == nil {
			t.Fatalf("pop %d: unexpected empty queue", i)
		}
		if r.injectHead == 0 && len(r.inject) > 0 && i < n-1 {
			compacted = true
			break
		}
	}
	if !compacted && r.injectHead != 0 && r.injectHead < injectCompactAt {
		t.Fatalf("injectHead = %d after full drain without compaction", r.injectHead)
	}
	// Drain whatever remains so the FIFO check starts from empty.
	for {
		if th, _ := r.popInject(); th == nil {
			break
		}
	}
	// FIFO order sanity on a fresh queue after the churn.
	for i := 0; i < 3; i++ {
		r.pushInject(mk(1000+i), nil)
	}
	ctx := &countingCtx{}
	for i := 0; i < 3; i++ {
		th, _ := r.popInject()
		if th == nil {
			t.Fatalf("refilled pop %d: empty", i)
		}
		if v := graph.Force(ctx, th); v != 1000+i {
			t.Fatalf("refilled pop %d = %v: injection queue is not FIFO", i, v)
		}
	}
}

// countingCtx is a minimal graph.Context for white-box forcing.
type countingCtx struct{}

func (countingCtx) Burn(int64)                       {}
func (countingCtx) Alloc(int64)                      {}
func (countingCtx) EagerBlackholing() bool           { return true }
func (countingCtx) BlackholeWriteCost() int64        { return 0 }
func (countingCtx) EnteredThunk(*graph.Thunk)        {}
func (countingCtx) LeftThunk(*graph.Thunk)           {}
func (countingCtx) BlockOnThunk(*graph.Thunk)        { panic("unexpected block") }
func (countingCtx) WakeThunkWaiters(t *graph.Thunk)  { t.TakeWaiters() }
func (countingCtx) NoteDuplicateEntry(*graph.Thunk)  {}
func (countingCtx) NoteDuplicateResult(*graph.Thunk) {}

// TestNativeSparkAllocsGuard is the allocation-regression guard for the
// spark hot path: with arenas and the closure-free thunk representation
// a non-capturing spark body must cost fewer than 2 heap allocations
// amortised (chunk makes, deque growth and payload boxing included).
// The pre-arena runtime paid ~3.9 per spark on this shape.
func TestNativeSparkAllocsGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const sparks = 512
	prog := func(ctx exec.Ctx) graph.Value {
		ts := make([]*graph.Thunk, sparks)
		for j := range ts {
			j := j
			ts[j] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				return int64(j % 7)
			})
		}
		for _, th := range ts {
			ctx.Par(th)
		}
		var sum int64
		for _, th := range ts {
			sum += ctx.Force(th).(int64)
		}
		return sum
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(NewConfig(4), prog); err != nil {
			panic(err)
		}
	})
	perSpark := allocs / sparks
	t.Logf("spark hot path: %.0f allocs/run, %.2f per spark", allocs, perSpark)
	if perSpark >= 2.0 {
		t.Errorf("spark hot path costs %.2f allocs/spark (%.0f per run), want < 2.0 — arena regression?",
			perSpark, allocs)
	}
}

// TestNativeGCPercentRestored checks the GC-telemetry contract: a run
// with a non-default GCPercent must restore the process-wide setting on
// return and report the percent it ran under.
func TestNativeGCPercentRestored(t *testing.T) {
	before := readGOGC()
	for _, v := range []int{50, 400, GCOff} {
		res := run(t, Config{Workers: 2, EagerBlackholing: true, GCPercent: v},
			func(ctx exec.Ctx) graph.Value { return int64(1) })
		if res.GC.GOGC != v {
			t.Fatalf("run under GCPercent=%d reported GOGC=%d", v, res.GC.GOGC)
		}
		if after := readGOGC(); after != before {
			t.Fatalf("GCPercent=%d leaked: process GOGC now %d, was %d", v, after, before)
		}
	}
	if got := fmt.Sprint(readGOGC()); got == "" {
		t.Fatal("unreachable")
	}
}
