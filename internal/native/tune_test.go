package native

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/tune"
	"parhask/internal/workloads/euler"
)

// TestIdleSleepLadder pins the one idle ladder: a yield through round
// 64, then 10µs doubling to 1.28ms, held at the cap up to math.MaxInt,
// never negative and never shorter for a later round.
func TestIdleSleepLadder(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		spins int
		want  time.Duration
	}{
		{0, 0}, {1, 0}, {63, 0}, {64, 0},
		{65, 10 * us}, {66, 20 * us}, {67, 40 * us}, {68, 80 * us},
		{69, 160 * us}, {70, 320 * us}, {71, 640 * us}, {72, 1280 * us},
		{73, 1280 * us}, {1 << 20, 1280 * us}, {math.MaxInt - 1, 1280 * us}, {math.MaxInt, 1280 * us},
	} {
		if got := idleSleep(c.spins); got != c.want {
			t.Errorf("idleSleep(%d) = %v, want %v", c.spins, got, c.want)
		}
	}
	// From idleSleep(0) = 0 upward, never shorter for a later round; the
	// table above pins the cap beyond round 200.
	for spins := 1; spins <= 200; spins++ {
		if d, prev := idleSleep(spins), idleSleep(spins-1); d < prev {
			t.Fatalf("idleSleep(%d) = %v after %v for an earlier round", spins, d, prev)
		}
	}
}

// TestGoroutineCensusAfterClose: once a pool that ran a good job and a
// failing job is Closed, and once a batch Run has
// returned, no goroutine the runtime started is left. Nothing wakes a
// stopping worker: each sees done at its next round of the idle ladder.
// The census polls, so only a goroutine that never leaves fails it.
func TestGoroutineCensusAfterClose(t *testing.T) {
	before := nativeGoroutines()
	want := euler.SumTotientSieve(300)

	p := NewPool(NewConfig(2))
	if got := serve(t, p, euler.Program(300, 8, 0, true)); got != want {
		t.Fatalf("good job = %v, want %d", got, want)
	}
	h, err := p.Submit(JobConfig{}, func(c exec.Ctx) graph.Value {
		bomb := exec.Thunk(func(exec.Ctx) graph.Value { panic("census boom") })
		c.Par(bomb)
		return c.Force(bomb)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err == nil {
		t.Fatal("the panicking job succeeded")
	}
	p.Close()
	if res := run(t, NewConfig(2), euler.Program(300, 8, 0, true)); res.Value != want {
		t.Fatalf("batch run = %v, want %d", res.Value, want)
	}

	for hang := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		var left []string
		for id, stack := range nativeGoroutines() {
			if _, ok := before[id]; !ok {
				left = append(left, stack)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(hang) {
			t.Fatalf("%d runtime goroutines never left:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}

// nativeGoroutines returns, keyed by their "goroutine N" header, the
// stacks of every goroutine but the caller's that has a frame in this
// package.
func nativeGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	gs := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "parhask/internal/native.") {
			id, _, _ := strings.Cut(g, " [")
			gs[id] = g
		}
	}
	return gs
}

// TestNativeBackoffSleepsCounted pins the telemetry satellite: a run
// whose workers idle against a slow sequential producer must count
// backoff sleeps and their duration into the stats.
func TestNativeBackoffSleepsCounted(t *testing.T) {
	res := run(t, Config{Workers: 4}, func(c exec.Ctx) graph.Value {
		time.Sleep(5 * time.Millisecond) // stealers idle here
		return int64(1)
	})
	if res.Stats.BackoffSleeps == 0 {
		t.Fatal("no backoff sleeps counted during a 5ms dry stretch")
	}
	if res.Stats.BackoffNS == 0 {
		t.Fatal("backoff sleeps counted but BackoffNS = 0")
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
