// Package gcscope scopes the process-global pieces of Go's GC that the
// native backends' telemetry touches, so concurrent runs (and resident-
// service jobs) stop corrupting each other.
//
// Two global resources need discipline:
//
//   - debug.SetGCPercent is a process-wide knob. Two overlapping runs
//     that each "set and restore" it interleave their restores: run A
//     (prev 100) sets 200, run B reads prev 200 and sets 400, A
//     restores 100 mid-flight under B, and B finally "restores" 200 —
//     the process ends on the wrong target and neither run measured
//     under the GOGC it asked for. LeaseFn serializes the knob with a
//     refcounted reader/writer-style latch: runs asking for the same
//     percent share the lease; a run asking for a different percent
//     waits its turn; the original value is restored exactly once, when
//     the last holder releases.
//
//   - runtime.ReadMemStats deltas are windows over process-global
//     monotone counters. Overlapping windows are not *wrong* — the
//     counters never tear — but each window silently absorbs the other
//     run's cycles, pauses and allocation. Window tracks overlap
//     explicitly: a delta taken while any other window was open (even
//     one that began and ended entirely inside it) is flagged Shared,
//     so telemetry consumers can attribute it to the process, not the
//     run.
//
// The resident service (internal/serve) leans on both: the pool owns
// one long-lived window for pool-level GC telemetry, per-job results
// carry no GC claim at all, and job-level GOGC pinning is simply not
// offered — the pool's lease is taken once at startup.
package gcscope

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// gogc is the lease state for the process-wide GC-percent knob.
var gogc struct {
	mu      sync.Mutex
	cond    *sync.Cond
	holders int
	percent int // percent in force while holders > 0
	prev    int // value to restore when the last holder releases
}

func init() { gogc.cond = sync.NewCond(&gogc.mu) }

// LeaseFn pins the process GC target to percent (-1 disables
// collection, as debug.SetGCPercent) and returns the release closure.
// Concurrent leases for the same percent share; a lease for a
// different percent blocks until every current holder releases. The
// pre-lease value is restored exactly once, when the last holder
// releases. The release closure is idempotent.
func LeaseFn(percent int) (release func()) {
	gogc.mu.Lock()
	for gogc.holders > 0 && gogc.percent != percent {
		gogc.cond.Wait()
	}
	if gogc.holders == 0 {
		gogc.prev = debug.SetGCPercent(percent)
		gogc.percent = percent
	}
	gogc.holders++
	gogc.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			gogc.mu.Lock()
			gogc.holders--
			if gogc.holders == 0 {
				debug.SetGCPercent(gogc.prev)
			}
			gogc.cond.Broadcast()
			gogc.mu.Unlock()
		})
	}
}

// windowState tracks open memstats windows for overlap detection.
var windowState struct {
	active atomic.Int64 // windows currently open
	births atomic.Int64 // windows ever opened
}

// Delta is what the collector did between a window's Begin and End —
// the GC result every native run reports (nativeeden's GCStats is this
// type; native's embeds it beside the GOGC and arena figures).
type Delta struct {
	// Cycles is the number of GC cycles completed during the window.
	Cycles int64 `json:"cycles"`
	// PauseNS is the total stop-the-world pause time during the window.
	PauseNS int64 `json:"pause_ns"`
	// BytesAlloc is the cumulative heap allocation of the window.
	BytesAlloc int64 `json:"bytes_alloc"`
	// Shared reports that another window overlapped this one, so the
	// delta contains that run's GC activity too: it describes the
	// process over the interval, not this run exclusively.
	Shared bool `json:"shared,omitempty"`
}

// Add folds o into d: the counts sum, and the sum is Shared if either
// part was (a cluster folds its ranks' windows this way).
func (d *Delta) Add(o Delta) {
	d.Cycles += o.Cycles
	d.PauseNS += o.PauseNS
	d.BytesAlloc += o.BytesAlloc
	d.Shared = d.Shared || o.Shared
}

// Window is one open memstats measurement interval.
type Window struct {
	start    runtime.MemStats
	births   int64
	overlaps bool
	ended    bool
}

// Begin opens a measurement window over the process GC counters.
func Begin() *Window {
	w := &Window{}
	if windowState.active.Add(1) > 1 {
		w.overlaps = true
	}
	w.births = windowState.births.Add(1)
	runtime.ReadMemStats(&w.start)
	return w
}

// Sample returns the delta accumulated so far without closing the
// window — the read a long-lived window (a resident pool's) serves to
// mid-flight observers. Shared reflects overlap observed up to now.
func (w *Window) Sample() Delta {
	if w.ended {
		return Delta{}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	shared := w.overlaps ||
		windowState.births.Load() != w.births ||
		windowState.active.Load() > 1
	return Delta{
		Cycles:     int64(after.NumGC) - int64(w.start.NumGC),
		PauseNS:    int64(after.PauseTotalNs) - int64(w.start.PauseTotalNs),
		BytesAlloc: int64(after.TotalAlloc) - int64(w.start.TotalAlloc),
		Shared:     shared,
	}
}

// End closes the window and returns the process-counter delta, flagged
// Shared when any other window overlapped it — whether it was already
// open at Begin, outlives this End, or began and ended entirely inside.
func (w *Window) End() Delta {
	if w.ended {
		return Delta{}
	}
	w.ended = true
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Order matters: read births before decrementing active, so a
	// window racing to Begin between the two reads is seen by at least
	// one side (it either bumped births already, or will still see our
	// active count).
	if windowState.births.Load() != w.births {
		w.overlaps = true
	}
	if windowState.active.Add(-1) > 0 {
		w.overlaps = true
	}
	return Delta{
		Cycles:     int64(after.NumGC) - int64(w.start.NumGC),
		PauseNS:    int64(after.PauseTotalNs) - int64(w.start.PauseTotalNs),
		BytesAlloc: int64(after.TotalAlloc) - int64(w.start.TotalAlloc),
		Shared:     w.overlaps,
	}
}
