package native

import (
	"sync/atomic"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/tune"
	"parhask/internal/workloads/euler"
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

// TestNativeAutoProgramsMatchOracles pins the lazily split sumEuler
// form (the benchmark's splitter probe) to the sieve reference across
// grain extremes, under both claim policies.
func TestNativeAutoProgramsMatchOracles(t *testing.T) {
	want := euler.SumTotientSieve(1200)
	for _, grain := range []int{1, 16, 1 << 20} {
		for _, eager := range []bool{false, true} {
			cfg := Config{Workers: 4, EagerBlackholing: eager}
			res := run(t, cfg, euler.AutoProgram(1200, tune.NewSplitter("euler", grain, 1, 1<<20)))
			if res.Value.(int64) != want {
				t.Fatalf("grain=%d eager=%v: sum = %d, want %d", grain, eager, res.Value.(int64), want)
			}
		}
	}
}

// TestDefaultBackoffShared pins the default path's cost: a run without
// Config.Backoff shares the immutable package-wide policy instead of
// allocating one per run (the spark hot-path alloc guard in
// arena_test.go bounds the rest).
func TestDefaultBackoffShared(t *testing.T) {
	if r := newRT(NewConfig(2), false); r.bo != defaultBackoff {
		t.Fatal("run without Config.Backoff allocated a private policy; want the shared default")
	}
}
