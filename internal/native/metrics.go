package native

import (
	"sync"

	"parhask/internal/metrics"
)

// poolMetrics wires a resident Pool into a metrics.Registry. Push
// series (histograms, fault counters) are recorded on the hot paths
// behind nil checks; pull series read from one collector-cached
// snapshot so an exposition costs a single Pool.Snapshot + Pool.GC,
// not one per series.
type poolMetrics struct {
	schedWait *metrics.Histogram // Submit → job goroutine running
	wallOK    *metrics.Histogram // job wall time, by outcome
	wallErr   *metrics.Histogram

	faultPanics *metrics.Counter
	faultStalls *metrics.Counter

	// snap/gc are refreshed once per exposition by the registry
	// collector; the CounterFunc/GaugeFunc closures read the cache.
	cache struct {
		mu   sync.Mutex
		snap Stats
		gc   GCStats
	}
}

func newPoolMetrics(reg *metrics.Registry, p *Pool) *poolMetrics {
	m := &poolMetrics{
		schedWait:   reg.Histogram("native_pool_sched_wait_seconds", "submit-to-start scheduling latency of resident jobs", 1e-9),
		faultPanics: reg.Counter("native_pool_fault_panics_total", "spark panics injected by the fault plane"),
		faultStalls: reg.Counter("native_pool_fault_stalls_total", "worker stalls injected by the fault plane"),
	}
	m.wallOK = reg.Histogram("native_pool_job_seconds", "wall-clock latency of resident jobs by outcome", 1e-9, "outcome", "ok")
	m.wallErr = reg.Histogram("native_pool_job_seconds", "wall-clock latency of resident jobs by outcome", 1e-9, "outcome", "error")
	reg.AddCollector(func() {
		snap := p.Snapshot()
		gc := p.GC()
		m.cache.mu.Lock()
		m.cache.snap = snap
		m.cache.gc = gc
		m.cache.mu.Unlock()
	})
	cached := func(read func() float64) func() float64 {
		return func() float64 {
			m.cache.mu.Lock()
			defer m.cache.mu.Unlock()
			return read()
		}
	}
	counter := func(name, help string, read func() int64) {
		reg.CounterFunc(name, help, cached(func() float64 { return float64(read()) }))
	}

	// Spark / steal / blocking rates: the paper's runtime counters as
	// live series, from the pool's monotone snapshot.
	counter("native_pool_sparks_created_total", "par calls that entered a spark pool", func() int64 { return m.cache.snap.SparksCreated })
	counter("native_pool_sparks_converted_total", "sparks picked up and forced by a worker", func() int64 { return m.cache.snap.SparksConverted })
	counter("native_pool_sparks_fizzled_total", "sparks picked up already evaluated", func() int64 { return m.cache.snap.SparksFizzled })
	counter("native_pool_sparks_dud_total", "par on an already-evaluated closure", func() int64 { return m.cache.snap.SparksDud })
	counter("native_pool_steals_total", "successful remote pool steals", func() int64 { return m.cache.snap.Steals })
	counter("native_pool_steal_attempts_total", "steals tried against a non-empty pool", func() int64 { return m.cache.snap.StealAttempts })
	counter("native_pool_dup_entries_total", "duplicate thunk entries (lazy black-holing)", func() int64 { return m.cache.snap.DupEntries })
	counter("native_pool_blocked_forces_total", "forces that found a black hole and waited", func() int64 { return m.cache.snap.BlockedForces })
	counter("native_pool_forks_total", "GpH threads created with Fork", func() int64 { return m.cache.snap.Forks })
	reg.GaugeFunc("native_pool_sparks_leftover", "sparks currently pooled awaiting a worker",
		cached(func() float64 { return float64(m.cache.snap.SparksLeftover) }))

	// Idle-wait telemetry: how much of the workers' time the backoff
	// ladder and the park lot absorbed.
	counter("native_pool_backoff_sleeps_total", "idle-loop backoff sleeps taken by workers", func() int64 { return m.cache.snap.BackoffSleeps })
	reg.CounterFunc("native_pool_backoff_ns", "nanoseconds workers spent in backoff sleeps",
		cached(func() float64 { return float64(m.cache.snap.BackoffNS) }))
	counter("native_pool_parks_total", "times a worker parked on the pool condvar", func() int64 { return m.cache.snap.Parks })
	reg.CounterFunc("native_pool_parked_ns", "nanoseconds workers spent parked",
		cached(func() float64 { return float64(m.cache.snap.ParkedNS) }))
	reg.GaugeFunc("native_pool_parked_workers", "workers currently parked on the pool condvar",
		func() float64 { return float64(p.rt.nparked.Load()) })

	// GC deltas since the pool came up (gcscope window; Shared handled
	// by the boolean gauge rather than polluting the counters).
	counter("native_pool_gc_cycles_total", "GC cycles since the pool started", func() int64 { return m.cache.gc.Cycles })
	reg.CounterFunc("native_pool_gc_pause_seconds_total", "total stop-the-world pause since the pool started",
		cached(func() float64 { return float64(m.cache.gc.PauseNS) * 1e-9 }))
	counter("native_pool_gc_alloc_bytes_total", "heap bytes allocated since the pool started", func() int64 { return m.cache.gc.BytesAlloc })
	reg.GaugeFunc("native_pool_gc_shared", "1 when another measurement window overlapped the pool's gcscope window",
		cached(func() float64 {
			if m.cache.gc.Shared {
				return 1
			}
			return 0
		}))

	// Arena traffic from the workers' published atomics (the arena's
	// own counters are owner-written plain fields — racy to read live).
	reg.GaugeFunc("native_pool_arena_chunks", "thunk-arena chunks allocated by the workers since the pool started (filled chunks are not retained)", func() float64 {
		var n int64
		for _, w := range p.rt.workers {
			n += w.pubArenaChunks.Load()
		}
		return float64(n)
	})
	reg.GaugeFunc("native_pool_arena_thunks", "thunks handed out of worker arenas", func() float64 {
		var n int64
		for _, w := range p.rt.workers {
			n += w.pubArenaThunks.Load()
		}
		return float64(n)
	})

	// Job lifecycle, straight off the pool's atomics (cheap enough to
	// read per-exposition without the cache).
	reg.CounterFunc("native_pool_jobs_total", "resident jobs retired by outcome",
		func() float64 { return float64(p.JobsDone()) }, "outcome", "ok")
	reg.CounterFunc("native_pool_jobs_total", "resident jobs retired by outcome",
		func() float64 { return float64(p.JobsFailed()) }, "outcome", "error")
	reg.GaugeFunc("native_pool_inflight_jobs", "jobs currently live in the pool",
		func() float64 { return float64(p.Inflight()) })
	reg.CounterFunc("native_pool_poisoned_claims_total", "thunk claims poisoned by dying threads",
		func() float64 { return float64(p.rt.poisoned.Load()) })
	reg.GaugeFunc("native_pool_uptime_seconds", "time since the pool came up",
		func() float64 { return p.Uptime().Seconds() })
	reg.GaugeFunc("native_pool_workers", "resident worker count",
		func() float64 { return float64(len(p.rt.workers)) })
	return m
}
