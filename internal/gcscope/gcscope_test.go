package gcscope

import (
	"runtime/debug"
	"sync"
	"testing"
)

// readGOGC reads the current target without disturbing it (set-and-set-back).
func readGOGC() int {
	v := debug.SetGCPercent(100)
	debug.SetGCPercent(v)
	return v
}

func TestLeaseSetsAndRestores(t *testing.T) {
	before := readGOGC()
	release := LeaseFn(before + 150)
	if got := readGOGC(); got != before+150 {
		t.Fatalf("GOGC under lease = %d, want %d", got, before+150)
	}
	release()
	if got := readGOGC(); got != before {
		t.Fatalf("GOGC after release = %d, want %d", got, before)
	}
}

func TestLeaseReleaseIdempotent(t *testing.T) {
	before := readGOGC()
	release := LeaseFn(before + 50)
	release()
	release() // second call must not restore again or underflow holders
	if got := readGOGC(); got != before {
		t.Fatalf("GOGC after double release = %d, want %d", got, before)
	}
	// The latch must still be usable.
	r2 := LeaseFn(before + 70)
	if got := readGOGC(); got != before+70 {
		t.Fatalf("GOGC under second lease = %d, want %d", got, before+70)
	}
	r2()
}

func TestLeaseSharedSamePercent(t *testing.T) {
	before := readGOGC()
	r1 := LeaseFn(before + 100)
	r2 := LeaseFn(before + 100) // same percent: shares, must not block
	r1()
	if got := readGOGC(); got != before+100 {
		t.Fatalf("GOGC after first of two releases = %d, want %d (still held)", got, before+100)
	}
	r2()
	if got := readGOGC(); got != before {
		t.Fatalf("GOGC after last release = %d, want %d", got, before)
	}
}

// TestLeaseConcurrentConflicting is the regression test for the raw
// SetGCPercent set/restore race: N goroutines each lease a different
// percent, hold it briefly, and release. Interleaved raw restores would
// leave the process on an arbitrary intermediate value; the lease must
// end exactly where it started.
func TestLeaseConcurrentConflicting(t *testing.T) {
	before := readGOGC()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(pct int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				release := LeaseFn(pct)
				if got := readGOGC(); got != pct {
					t.Errorf("GOGC under lease = %d, want %d", got, pct)
					release()
					return
				}
				release()
			}
		}(before + 100 + i*37)
	}
	wg.Wait()
	if got := readGOGC(); got != before {
		t.Fatalf("GOGC after all releases = %d, want %d", got, before)
	}
}

func TestWindowSolo(t *testing.T) {
	w := Begin()
	buf := make([]byte, 1<<20)
	_ = buf
	d := w.End()
	if d.Shared {
		t.Fatalf("solo window flagged Shared")
	}
	if d.BytesAlloc < 1<<20 {
		t.Fatalf("window missed the allocation: BytesAlloc = %d", d.BytesAlloc)
	}
	if d.Cycles < 0 || d.PauseNS < 0 {
		t.Fatalf("negative delta: %+v", d)
	}
}

func TestWindowOverlapFlagged(t *testing.T) {
	outer := Begin()
	inner := Begin() // strictly nested inside outer
	di := inner.End()
	do := outer.End()
	if !di.Shared {
		t.Fatalf("inner window not flagged Shared")
	}
	if !do.Shared {
		t.Fatalf("outer window not flagged Shared despite fully containing another")
	}
	// A fresh window after both closed must be solo again.
	if d := Begin().End(); d.Shared {
		t.Fatalf("window after overlap drained still flagged Shared")
	}
}

func TestWindowEndIdempotent(t *testing.T) {
	w := Begin()
	_ = w.End()
	if d := w.End(); d != (Delta{}) {
		t.Fatalf("second End returned non-zero delta: %+v", d)
	}
	if d := Begin().End(); d.Shared {
		t.Fatalf("active count corrupted by double End")
	}
}

func TestDeltaAdd(t *testing.T) {
	d := Delta{Cycles: 1, PauseNS: 10, BytesAlloc: 100}
	d.Add(Delta{Cycles: 2, PauseNS: 20, BytesAlloc: 200})
	if want := (Delta{Cycles: 3, PauseNS: 30, BytesAlloc: 300}); d != want {
		t.Fatalf("sum = %+v, want %+v", d, want)
	}
	d.Add(Delta{Shared: true})
	d.Add(Delta{})
	if !d.Shared {
		t.Fatal("a shared part did not make the sum shared")
	}
}
