package parfib

import (
	"testing"
	"testing/quick"

	"parhask/internal/gph"
)

func TestFibKnownValues(t *testing.T) {
	want := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, w := range want {
		if got := Fib(n); got != w {
			t.Errorf("Fib(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestNfibCallsRecurrence(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%25) + 2
		return nfibCalls(n) == 1+nfibCalls(n-1)+nfibCalls(n-2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParFibCorrectAcrossThresholds(t *testing.T) {
	const n = 22
	want := Fib(n)
	for _, threshold := range []int{5, 10, 15, 21} {
		res, err := gph.Run(gph.WorkStealingConfig(4), Program(n, threshold))
		if err != nil {
			t.Fatalf("threshold %d: %v", threshold, err)
		}
		if res.Value != want {
			t.Fatalf("threshold %d: got %v, want %d", threshold, res.Value, want)
		}
	}
}

func TestThresholdControlsSparkCount(t *testing.T) {
	const n = 20
	run := func(th int) int {
		res, err := gph.Run(gph.WorkStealingConfig(4), Program(n, th))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.SparksCreated
	}
	fine, coarse := run(8), run(16)
	if fine <= coarse {
		t.Fatalf("sparks: threshold 8 -> %d, threshold 16 -> %d; want more at finer grain", fine, coarse)
	}
}

func TestParFibSpeedup(t *testing.T) {
	const n, th = 26, 16
	r1, err := gph.Run(gph.WorkStealingConfig(1), Program(n, th))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := gph.Run(gph.WorkStealingConfig(8), Program(n, th))
	if err != nil {
		t.Fatal(err)
	}
	if sp := float64(r1.Elapsed) / float64(r8.Elapsed); sp < 3 {
		t.Fatalf("speedup = %.2f, want >= 3", sp)
	}
}

func TestTooFineGrainsHurt(t *testing.T) {
	// A very low threshold creates hordes of tiny sparks whose
	// scheduling overhead outweighs the parallelism (the granularity
	// lesson parfib exists to teach).
	const n = 22
	fine, err := gph.Run(gph.WorkStealingConfig(8), Program(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := gph.Run(gph.WorkStealingConfig(8), Program(n, 14))
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Elapsed >= fine.Elapsed {
		t.Fatalf("tuned threshold (%d) not faster than threshold 2 (%d)",
			tuned.Elapsed, fine.Elapsed)
	}
}

func TestVeryFineGrainNoDeadlock(t *testing.T) {
	// Regression: at tiny cutoffs, hordes of microscopic sparks make
	// steal-loop burns absorb Unpark permits; capabilities must re-check
	// their run queues before parking or enqueued wakeups are lost and
	// the runtime deadlocks (found by BenchmarkAblationParfibThreshold).
	for _, cores := range []int{2, 4, 8} {
		for _, th := range []int{2, 3, 4} {
			res, err := gph.Run(gph.WorkStealingConfig(cores), Program(20, th))
			if err != nil {
				t.Fatalf("cores=%d cutoff=%d: %v", cores, th, err)
			}
			if res.Value != Fib(20) {
				t.Fatalf("cores=%d cutoff=%d: got %v", cores, th, res.Value)
			}
		}
	}
}
