package native

import (
	"sync/atomic"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/tune"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// aggressivePark is a test policy that parks almost immediately: one
// spin round, one 1µs sleep, then the condvar. It makes parking
// reachable within microseconds of a pool going dry.
func aggressivePark() *tune.Backoff {
	return tune.NewBackoff(1, time.Microsecond, 2*time.Microsecond, 1)
}

// waitUntil polls cond every 100µs until it holds or the deadline
// passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPoolWorkersParkWhenDry is the parking acceptance check: a dry
// resident pool must end up with every worker on the condvar — not in
// the sleep ladder — and the parked time must show up in telemetry.
func TestPoolWorkersParkWhenDry(t *testing.T) {
	const workers = 4
	p := NewPool(Config{Workers: workers, Backoff: aggressivePark()})
	defer p.Close()

	waitUntil(t, 5*time.Second, func() bool {
		return p.rt.nparked.Load() == workers
	}, "all workers parked")

	// A submitted job must wake them, run, and let them park again.
	h, err := p.Submit(JobConfig{}, euler.Program(300, 8, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Value.(int64), euler.SumTotientSieve(300); got != want {
		t.Fatalf("job value = %d, want %d", got, want)
	}
	waitUntil(t, 5*time.Second, func() bool {
		return p.rt.nparked.Load() == workers
	}, "workers re-parked after the job")

	s := p.Snapshot()
	if s.Parks == 0 {
		t.Fatal("Stats.Parks = 0 after observed parking")
	}
	waitUntil(t, 5*time.Second, func() bool {
		return p.Snapshot().ParkedNS > 0
	}, "parked time to publish")
}

// TestPoolParkWakeStress hammers the park/wake handshake under -race:
// bursts of jobs separated by dry gaps long enough for workers to
// park, so every burst's first Par races a parking worker's re-check.
func TestPoolParkWakeStress(t *testing.T) {
	p := NewPool(Config{Workers: 4, Backoff: aggressivePark()})
	defer p.Close()
	want := euler.SumTotientSieve(200)
	for burst := 0; burst < 40; burst++ {
		handles := make([]*JobHandle, 3)
		for i := range handles {
			h, err := p.Submit(JobConfig{}, euler.Program(200, 5, 0, true))
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		for _, h := range handles {
			res, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Value.(int64) != want {
				t.Fatalf("burst %d: value = %d, want %d", burst, res.Value.(int64), want)
			}
		}
		// Dry gap: with the aggressive policy the workers reach the
		// condvar well inside this window, so the next burst's inject
		// exercises the wake path.
		time.Sleep(300 * time.Microsecond)
	}
	if p.Snapshot().Parks == 0 {
		t.Fatal("stress run never parked")
	}
}

// TestNativeRunParksDuringSequentialStretch checks the batch path: the
// stealers park while worker 0 (the caller) computes sequentially, and
// worker-path Par wakes them.
func TestNativeRunParksDuringSequentialStretch(t *testing.T) {
	var peakParked int64
	res := run(t, Config{Workers: 4, Backoff: aggressivePark()}, func(c exec.Ctx) graph.Value {
		// Sequential stretch: the three stealers have nothing and must
		// reach the condvar, not burn the sleep ladder.
		deadline := time.Now().Add(2 * time.Second)
		for {
			if n := c.(*Ctx).rt.nparked.Load(); n > atomic.LoadInt64(&peakParked) {
				atomic.StoreInt64(&peakParked, n)
			}
			if atomic.LoadInt64(&peakParked) >= 3 || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		// Now fan out: Par from the worker path must wake the parked
		// stealers or the forces below would wait on dead sparks.
		thunks := make([]*graph.Thunk, 8)
		for i := range thunks {
			v := int64(i)
			thunks[i] = exec.NewThunk(c, func(c exec.Ctx) graph.Value { return v * v })
			c.Par(thunks[i])
		}
		var sum int64
		for _, th := range thunks {
			sum += c.Force(th).(int64)
		}
		return sum
	})
	if got, want := res.Value.(int64), int64(0+1+4+9+16+25+36+49); got != want {
		t.Fatalf("value = %d, want %d", got, want)
	}
	if atomic.LoadInt64(&peakParked) == 0 {
		t.Fatal("no stealer parked during the sequential stretch")
	}
	if res.Stats.Parks == 0 {
		t.Fatal("Stats.Parks = 0 despite observed parking")
	}
}

// TestNativeRunAutotune runs a batch workload under the controller and
// checks the report plumbing: decisions traced, levers reported, value
// untouched.
func TestNativeRunAutotune(t *testing.T) {
	sp := tune.NewSplitter("euler", 64, 8, 1024)
	cfg := Config{
		Workers: 4,
		Autotune: &AutotuneConfig{
			Controller: tune.ControllerConfig{Tick: time.Millisecond},
			Splitters:  []*tune.Splitter{sp},
		},
	}
	res := run(t, cfg, func(c exec.Ctx) graph.Value {
		return sp.ParSum(c, 1, 2001, func(c exec.Ctx, lo, hi int) int64 {
			return euler.SumRangeDirect(lo, hi-1) // ParSum is [lo,hi)
		})
	})
	if got, want := res.Value.(int64), euler.SumTotientSieve(2000); got != want {
		t.Fatalf("autotuned sum = %d, want %d", got, want)
	}
	at := res.Autotune
	if at == nil {
		t.Fatal("autotuned run returned no AutotuneReport")
	}
	// ParkAfter's final value is the controller's call (a busy run
	// legitimately disables parking); the trace must be well-formed.
	for _, d := range at.Decisions {
		if d.Lever == "" || d.Action == "" {
			t.Fatalf("malformed decision in trace: %+v", d)
		}
	}
	if g, ok := at.Grains["euler"]; !ok || g < 8 || g > 1024 {
		t.Fatalf("splitter grain missing or out of bounds: %v", at.Grains)
	}
	if at.GOGC <= 0 {
		t.Fatalf("autotune GOGC = %d, want the leased percent", at.GOGC)
	}
}

// TestPoolAutotune covers the resident controller lifecycle: it must
// sample a live pool without racing Close, and the status-side report
// must be available while the pool is up.
func TestPoolAutotune(t *testing.T) {
	sp := tune.NewSplitter("jobs", 32, 4, 512)
	p := NewPool(Config{
		Workers: 4,
		Autotune: &AutotuneConfig{
			Controller: tune.ControllerConfig{Tick: time.Millisecond},
			Splitters:  []*tune.Splitter{sp},
		},
	})
	want := euler.SumTotientSieve(400)
	for i := 0; i < 10; i++ {
		h, err := p.Submit(JobConfig{}, euler.Program(400, 10, 0, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Value.(int64) != want {
			t.Fatalf("job %d: value = %d, want %d", i, res.Value.(int64), want)
		}
	}
	at := p.Autotune()
	if at == nil {
		t.Fatal("autotuned pool reported nil Autotune")
	}
	if g, ok := at.Grains["jobs"]; !ok || g < 4 || g > 512 {
		t.Fatalf("splitter grain missing or out of bounds: %v", at.Grains)
	}
	p.Close()
	// Close is idempotent and the report must survive it.
	if p.Autotune() == nil {
		t.Fatal("Autotune report lost after Close")
	}
}

// TestNativeBackoffSleepsCounted pins the telemetry satellite: a run
// whose workers idle against a slow sequential producer must count
// backoff sleeps and their duration into the stats.
func TestNativeBackoffSleepsCounted(t *testing.T) {
	// Parking disabled (park=0): the idle stealers must ride the
	// counted sleep ladder instead.
	bo := tune.NewBackoff(1, time.Microsecond, 4*time.Microsecond, 0)
	res := run(t, Config{Workers: 4, Backoff: bo}, func(c exec.Ctx) graph.Value {
		time.Sleep(5 * time.Millisecond) // stealers idle here
		return int64(1)
	})
	if res.Stats.BackoffSleeps == 0 {
		t.Fatal("no backoff sleeps counted during a 5ms dry stretch")
	}
	if res.Stats.BackoffNS == 0 {
		t.Fatal("backoff sleeps counted but BackoffNS = 0")
	}
	if res.Stats.Parks != 0 {
		t.Fatal("parking occurred with parkAfter = 0")
	}
	var perWorker int64
	for _, ws := range res.PerWorker {
		perWorker += ws.BackoffSleeps
	}
	if perWorker != res.Stats.BackoffSleeps {
		t.Fatalf("per-worker backoff sleeps sum %d != total %d", perWorker, res.Stats.BackoffSleeps)
	}
}

// TestNativeAutoProgramsMatchOracles pins the auto-chunked workload
// variants to the same references as their hand-tuned counterparts,
// under an active controller and across grain extremes.
func TestNativeAutoProgramsMatchOracles(t *testing.T) {
	a, b := matmul.Random(64, 1), matmul.Random(64, 2)
	wantMat := matmul.MulOracle(a, b)
	g := apsp.RandomGraph(48, 7, 100, 50)
	in := apsp.Clone(g)
	wantGraph := apsp.FloydWarshall(g)
	wantSum := euler.SumTotientSieve(1200)

	for _, grain := range []int{1, 16, 1 << 20} {
		spE := tune.NewSplitter("euler", grain, 1, 1<<20)
		spM := tune.NewSplitter("matmul", grain, 1, 1<<20)
		spA := tune.NewSplitter("apsp", grain, 1, 1<<20)
		cfg := Config{Workers: 4, Autotune: &AutotuneConfig{
			Controller: tune.ControllerConfig{Tick: time.Millisecond},
			Splitters:  []*tune.Splitter{spE, spM, spA},
		}}
		res := run(t, cfg, euler.AutoProgram(1200, spE))
		if res.Value.(int64) != wantSum {
			t.Fatalf("grain=%d: euler auto sum = %d, want %d", grain, res.Value.(int64), wantSum)
		}
		res = run(t, cfg, matmul.AutoBlockProgram(a, b, spM, 0))
		if !matmul.Equal(res.Value.(matmul.Mat), wantMat, 1e-9) {
			t.Fatalf("grain=%d: matmul auto product diverged from oracle", grain)
		}
		// Both policies: eager claims switch the lattice to in-place rows.
		for _, eager := range []bool{false, true} {
			cfg.EagerBlackholing = eager
			res = run(t, cfg, apsp.AutoProgram(g, spA, 0))
			if !apsp.Equal(res.Value.(apsp.Graph), wantGraph) {
				t.Fatalf("grain=%d eager=%v: apsp auto distances diverged from oracle", grain, eager)
			}
			if !apsp.Equal(g, in) {
				t.Fatalf("grain=%d eager=%v: apsp auto wrote to its input graph", grain, eager)
			}
		}
	}
}

// TestAutoBlockEdge pins the grain→block-size mapping.
func TestAutoBlockEdge(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{64, 1, 1},        // nothing fits: smallest legal block
		{64, 4, 2},        // 2² = 4 fits, 4² = 16 does not
		{64, 256, 16},     // 16² = 256 exactly
		{64, 1 << 20, 64}, // whole matrix in one spark
		{48, 200, 12},     // largest divisor of 48 with square ≤ 200 (12² = 144; 16² = 256 too big)
		{7, 100, 7},       // prime n: 1 or n only
	}
	for _, c := range cases {
		if got := matmul.AutoBlockEdge(c.n, c.grain); got != c.want {
			t.Fatalf("AutoBlockEdge(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
}

// TestAutotuneDisabledPathShared pins the disabled path's cost: a run
// without Config.Autotune builds no controller and shares the
// immutable package-wide backoff policy instead of allocating one per
// run (the spark hot-path alloc guard in arena_test.go bounds the
// rest).
func TestAutotuneDisabledPathShared(t *testing.T) {
	r := newRT(NewConfig(2), false)
	if r.bo != defaultBackoff {
		t.Fatal("run without Autotune allocated a private backoff policy; want the shared default")
	}
	res := run(t, Config{Workers: 2, EagerBlackholing: true},
		func(c exec.Ctx) graph.Value { return int64(1) })
	if res.Autotune != nil {
		t.Fatal("run without Autotune produced a controller report")
	}
}
