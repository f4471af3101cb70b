// Package native is the real-concurrency counterpart of the simulated
// GpH runtime: it executes the same runtime-agnostic GpH program bodies
// (exec.Program — sumEuler, matmul, APSP, the strategies combinators) on
// actual goroutines, so the paper's headline optimisations become
// measurable in wall-clock time on real hardware instead of only in
// virtual time.
//
// Architecture (one-to-one with the simulated work-stealing runtime):
//
//   - One lifecycle. A resident Pool runs jobs; a batch Run is a pool
//     that runs exactly one job. Every worker runs the same loop
//     (stealPass), and every thread — a job's main, a worker's sparks —
//     the same recovery bracket (Ctx.try) over one failure latch per
//     job (faults.Latch).
//   - N workers, one per requested core. In a batch Run worker 0 is the
//     caller's goroutine running the program's main function (the GpH
//     main thread, as on GHC's capability 0); workers 1..N-1 loop on
//     fresh goroutines. In a resident Pool all N loop, and each job's
//     main runs on a goroutine of its own.
//   - Each worker owns a lock-free Chase–Lev deque (internal/deque, the
//     same type the simulation uses) as its spark pool: Par pushes at
//     the bottom, idle workers steal from the top with a single CAS.
//   - Each worker owns a thunk arena (graph.Arena): NewThunk on a
//     worker context hands out Thunk nodes from owner-local chunks —
//     the per-capability allocation-area analogue of the paper's
//     §IV-A.1 bigger-nurseries optimisation, applied to Go's GC.
//   - Eager black-holing is an atomic CAS claim on the thunk
//     (graph.Thunk.TryClaim); lazy black-holing is the unsynchronised
//     baseline — entries are never marked, so concurrent forcers
//     duplicate evaluation exactly as in the paper's §IV-A.3 window,
//     and the duplicate-entry count is measured on real hardware.
//   - Nothing parks. A worker that forces a black-holed thunk polls its
//     atomic state, and an idle worker re-scans the deques, both on one
//     fixed yield-then-sleep ladder (idleWait), so a lost wakeup is
//     impossible by construction. Only a force with an
//     empty claim stack (main's, or a spark's outermost) runs other
//     sparks while it waits (leapfrogging); a nested force just polls.
//
// Burn and Alloc are no-ops: real time is consumed by actually
// computing, and Go's allocator is real. The virtual-time simulation
// remains the instrument for controlled interleaving studies; this
// backend complements it with wall-clock ground truth (see DESIGN.md).
//
// Observability: every counter is maintained per worker as plain
// owner-written fields (a resident pool's workers publish them to
// Pool.Snapshot as immutable snapshots; a batch run sums them into the
// aggregate Stats after the run's WaitGroup barrier), and
// Config.EventLog turns on the wall-clock eventlog
// (internal/eventlog). Each run additionally records what Go's GC did
// while it ran — cycles, total pause, bytes allocated (Result.GC) —
// and Config.GCPercent pins GOGC for the run, which is how the GOGC
// sweep reproduces the paper's allocation-area-size experiment.
package native

import (
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/gcscope"
	"parhask/internal/graph"
	pmetrics "parhask/internal/metrics"
	"parhask/internal/trace"
)

// GCOff is the Config.GCPercent value that disables Go's GC for the
// run (debug.SetGCPercent(-1)) — the "infinite allocation area" end of
// the GOGC sweep.
const GCOff = -1

// Config selects a native runtime setup.
type Config struct {
	// Workers is the number of OS-thread-backed workers (including the
	// main thread). Defaults to GOMAXPROCS.
	Workers int
	// EagerBlackholing selects the atomic-claim policy; false is the
	// unsynchronised lazy baseline that permits duplicate evaluation.
	EagerBlackholing bool
	// ArenaChunk is the per-worker thunk-arena chunk capacity, in
	// thunks (0 selects graph.DefaultArenaChunk). Larger chunks mean
	// fewer allocator calls and GC objects; smaller chunks waste less
	// on runs with few sparks.
	ArenaChunk int
	// GCPercent, if non-zero, sets Go's GC target (GOGC, via
	// debug.SetGCPercent) for the duration of the run and restores the
	// previous value afterwards. GCOff disables collection entirely.
	// This is the nursery-size knob of the §IV-A.1 experiment: a higher
	// GOGC is a bigger allocation area between collections.
	GCPercent int
	// EventLog enables a batch Run's per-worker wall-clock event rings.
	// The run's Result then carries the drained eventlog.Log, and
	// Result.Trace reduces it to an EdenTV-style timeline. Costs one
	// monotonic clock read plus one owner-local append per event on the
	// hot path; disabled, the hooks are nil checks only. A resident pool
	// keeps no pool-wide rings: a job asks for its own
	// (JobConfig.EventLog).
	EventLog bool
	// Faults, if non-nil, arms the deterministic fault-injection plane
	// (internal/faults): spark-indexed panics and per-worker stalls. It
	// governs all work without a private budget: every spark of a batch
	// Run, and in a pool the untagged work and the jobs submitted
	// without JobConfig.Faults. When nil every injection hook is a single
	// predictable nil check (the benchmark's faults.armed_overhead_x row).
	Faults *faults.Injector
	// Deadline, if non-zero, bounds a batch Run's wall-clock time: it is
	// the run's job deadline (JobConfig.Deadline), and a run still in
	// flight when it elapses fails with a structured
	// *faults.DeadlockError naming each blocked worker, instead of
	// hanging. (A spark stuck in a non-cooperative infinite computation
	// cannot be preempted — the deadline unblocks every *waiting*
	// thread; a busy-looping mutator keeps its goroutine, as in GHC.) A
	// resident pool bounds each job by its own JobConfig.Deadline.
	Deadline time.Duration
	// Metrics, if non-nil, registers the pool's telemetry series
	// (internal/metrics): job latency histograms, spark/steal/GC/fault
	// rates. Honoured by NewPool only: a batch Run's one job reports
	// through its Result. When nil — the default — every recording hook
	// is a nil check, the same contract as the eventlog and fault plane.
	Metrics *pmetrics.Registry
}

// NewConfig returns the default native configuration: one worker per
// available core, eager black-holing.
func NewConfig(workers int) Config {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Config{Workers: workers, EagerBlackholing: true}
}

// Stats aggregates runtime counters — over a whole run (Result.Stats),
// per worker (Result.PerWorker), or mid-run (Pool.Snapshot).
// Whole-run and per-worker counts are exact; mid-run samples are
// consistent snapshots per worker that may lag each worker by one
// spark execution.
type Stats struct {
	SparksCreated   int64 `json:"sparks_created"`   // par calls that entered a pool
	SparksDud       int64 `json:"sparks_dud"`       // par on an already-evaluated closure
	SparksConverted int64 `json:"sparks_converted"` // sparks a worker picked up and forced
	SparksFizzled   int64 `json:"sparks_fizzled"`   // picked up but already evaluated
	SparksLeftover  int64 `json:"sparks_leftover"`  // still in a pool (at end: when main returned)
	Steals          int64 `json:"steals"`           // successful remote pool steals
	StealAttempts   int64 `json:"steal_attempts"`   // steals tried against a non-empty pool
	DupEntries      int64 `json:"dup_entries"`      // duplicate thunk entries (lazy black-holing)
	DupResults      int64 `json:"dup_results"`      // duplicate values computed and discarded
	BlockedForces   int64 `json:"blocked_forces"`   // forces that found a black hole and waited
	Forks           int64 `json:"forks"`            // always 0: nothing forks a native thread; kept in the -stats json key set
	BackoffSleeps   int64 `json:"backoff_sleeps"`   // idle backoff sleeps taken (worker loops)
	BackoffNS       int64 `json:"backoff_ns"`       // cumulative time spent in backoff sleeps
	Parks           int64 `json:"parks"`            // always 0: no worker parks; kept in the -stats json key set
	ParkedNS        int64 `json:"parked_ns"`        // always 0, as Parks
}

// Add accumulates o into s field-wise (Forks, Parks and ParkedNS stay 0).
func (s *Stats) Add(o Stats) {
	s.SparksCreated += o.SparksCreated
	s.SparksDud += o.SparksDud
	s.SparksConverted += o.SparksConverted
	s.SparksFizzled += o.SparksFizzled
	s.SparksLeftover += o.SparksLeftover
	s.Steals += o.Steals
	s.StealAttempts += o.StealAttempts
	s.DupEntries += o.DupEntries
	s.DupResults += o.DupResults
	s.BlockedForces += o.BlockedForces
	s.BackoffSleeps += o.BackoffSleeps
	s.BackoffNS += o.BackoffNS
}

// counters is the atomic counter set for contributors without a worker
// identity: a resident job's main thread, while Pool.Snapshot may read
// it from any goroutine. Workers use the plain owner-written wcounters
// instead.
type counters struct {
	sparksCreated   atomic.Int64
	sparksDud       atomic.Int64
	sparksConverted atomic.Int64
	sparksFizzled   atomic.Int64
	steals          atomic.Int64
	stealAttempts   atomic.Int64
	dupEntries      atomic.Int64
	dupResults      atomic.Int64
	blockedForces   atomic.Int64
}

// load reads a consistent-enough snapshot of the counters (each field
// atomically; cross-field skew is inherent to sampling a live run).
func (c *counters) load() Stats {
	return Stats{
		SparksCreated:   c.sparksCreated.Load(),
		SparksDud:       c.sparksDud.Load(),
		SparksConverted: c.sparksConverted.Load(),
		SparksFizzled:   c.sparksFizzled.Load(),
		Steals:          c.steals.Load(),
		StealAttempts:   c.stealAttempts.Load(),
		DupEntries:      c.dupEntries.Load(),
		DupResults:      c.dupResults.Load(),
		BlockedForces:   c.blockedForces.Load(),
	}
}

// GCStats is what Go's collector did while one native run executed —
// the real-hardware counterpart of the simulation's virtual GC counts,
// and the y-axis of the GOGC sweep (§IV-A.1: GC frequency vs parallel
// speedup).
type GCStats struct {
	// GOGC is the GC target percent in force during the run (-1 = GC
	// disabled). A higher value is a proportionally bigger allocation
	// area between collections.
	GOGC int `json:"gogc"`
	// Delta is what the collector did during the run: cycles, total
	// pause, bytes allocated, and Shared when another run's window
	// overlapped, since Go's collector is process-global.
	gcscope.Delta
	// ArenaChunks / ArenaThunks describe the per-worker thunk arenas:
	// chunks allocated and thunks handed out of them. ArenaThunks
	// thunks cost ArenaChunks allocator calls instead of ArenaThunks.
	ArenaChunks int64 `json:"arena_chunks"`
	ArenaThunks int64 `json:"arena_thunks"`
}

// readGOGC reports the GOGC percent currently in force (-1 = off)
// without disturbing it.
func readGOGC() int {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	if v == math.MaxUint64 { // SetGCPercent(-1)
		return -1
	}
	return int(v)
}

// Result is the outcome of one native run.
type Result struct {
	// Value is what the main function returned.
	Value graph.Value
	// WallNS is the real elapsed time, in nanoseconds — the native
	// analogue of the simulation's virtual Elapsed.
	WallNS int64
	// Workers is the worker count the run used.
	Workers int
	// Stats is the whole-run aggregate over every worker.
	Stats Stats
	// PerWorker breaks the counters down by worker id.
	PerWorker []Stats
	// GC is the run's real-GC telemetry (cycles, pause, allocation,
	// arena footprint).
	GC GCStats
	// Events is the drained wall-clock eventlog (nil unless
	// Config.EventLog was set).
	Events *eventlog.Log
}

// Wall returns the elapsed wall-clock time as a duration.
func (r *Result) Wall() time.Duration { return time.Duration(r.WallNS) }

// Trace reduces the run's eventlog into a wall-clock trace.Log — the
// native analogue of the simulation's Result.Trace, rendered by the
// same exporters. Returns nil when the run was not event-logged.
func (r *Result) Trace() *trace.Log {
	if r.Events == nil {
		return nil
	}
	return r.Events.Trace()
}

// Report is the machine-readable summary of a native run (the cmds'
// `-stats json` output): wall time, aggregate counters, GC telemetry
// and the per-worker breakdown.
type Report struct {
	Workers       int     `json:"workers"`
	WallNS        int64   `json:"wall_ns"`
	Total         Stats   `json:"total"`
	GC            GCStats `json:"gc"`
	PerWorker     []Stats `json:"per_worker"`
	EventsLogged  int     `json:"events_logged,omitempty"`
	EventsDropped int64   `json:"events_dropped,omitempty"`
}

// Report builds the machine-readable summary of the run.
func (r *Result) Report() Report {
	rep := Report{Workers: r.Workers, WallNS: r.WallNS, Total: r.Stats, GC: r.GC, PerWorker: r.PerWorker}
	if r.Events != nil {
		for i := 0; i < r.Events.Workers(); i++ {
			rep.EventsLogged += r.Events.Buf(i).Len()
		}
		rep.EventsDropped = r.Events.Dropped()
	}
	return rep
}

// rt is one native runtime instance.
type rt struct {
	cfg     Config
	workers []*worker

	// own is the job that owns untagged work — deque sparks: a batch
	// Run's one job, nil in a resident pool. Set before the workers
	// start and never changed; a batch run's workers publish no counter
	// snapshots (see maybePublish).
	own *Job

	// done tells the worker loops to exit.
	done atomic.Bool

	// poisoned counts thunk-claim poisonings across the runtime's
	// lifetime (every recovery path feeds it). A non-zero value on a
	// healthy server means a thread died holding claims — the CI smoke
	// test asserts it stays zero under fault-free traffic.
	poisoned atomic.Int64

	// pm is the pool's metric recorder (nil unless the owning Pool was
	// configured with a Registry); workers reach it for fault-injection
	// counts. Every use is a nil check when disabled.
	pm *poolMetrics

	// inject holds sparks created by threads that own no deque
	// (PushBottom is owner-only): in a resident pool every job's main
	// thread. Workers drain it when their steals come up empty. Each
	// entry carries the job it belongs to, so workers can attribute
	// fault injection and failures. injectHead indexes the next unconsumed spark — consumed
	// slots are zeroed immediately and the prefix is compacted away
	// periodically, so the backing array never retains thunks the
	// runtime already ran (see popInject).
	injectMu   sync.Mutex
	inject     []injEntry
	injectHead int

	stealers sync.WaitGroup
}

// newRT builds the runtime core under every pool: its workers.
func newRT(cfg Config) *rt {
	r := &rt{cfg: cfg}
	r.workers = make([]*worker, cfg.Workers)
	for i := range r.workers {
		r.workers[i] = newWorker(r, i)
	}
	return r
}

// injEntry is one injection-queue slot: a spark and its job.
type injEntry struct {
	t   *graph.Thunk
	job *Job
}

// Run executes main on a native work-stealing runtime and returns its
// value, the wall-clock time, and the runtime counters. The result is
// identical to the same program's simulated and sequential runs
// (referential transparency); only the time is real.
//
// A batch run is a Pool that runs exactly one job, whose main thread is
// the caller's goroutine as worker 0: main's sparks go onto worker 0's
// deque, and its blocked forces help like any worker's. The job owns
// every untagged spark, so any failure in the run fails it.
func Run(cfg Config, main exec.Program) (*Result, error) {
	if main == nil {
		return nil, errors.New("native: nil main")
	}
	p := newPool(cfg)
	r := p.rt
	j, _ := p.admit(JobConfig{}) // a fresh pool admits
	r.own = j
	p.arm(j, cfg.Deadline)
	var events *eventlog.Log
	if cfg.EventLog {
		events = eventlog.New(j.start, len(r.workers), eventlog.Config{})
		for i, w := range r.workers {
			w.ev = events.Buf(i)
		}
	}
	p.startWorkers(1)
	value, err := p.runMain(j, &r.workers[0].ctx, main)
	// The workers stop before the outcome is decided, so a spark that
	// fails after main returned still fails the run.
	p.stop()
	p.finish(j, value, err)

	jr := j.result
	res := &Result{Value: jr.Value, WallNS: jr.WallNS, Workers: len(r.workers),
		Stats: jr.Stats, GC: p.gcStats(p.shutdown()), PerWorker: make([]Stats, len(r.workers))}
	for i, w := range r.workers {
		// Safe plain reads: the workers' WaitGroup barrier (and, for
		// worker 0, goroutine identity) orders every owner write first.
		ws := w.ctr.Stats
		ws.SparksLeftover = int64(w.pool.Size())
		res.PerWorker[i] = ws
		res.Stats.Add(ws)
		chunks, thunks := w.arena.Stats()
		res.GC.ArenaChunks += chunks
		res.GC.ArenaThunks += thunks
	}
	if events != nil {
		// A failed run keeps its drained rings too, so tracedump can
		// render the timeline of a crashed or deadlocked run.
		events.Close(res.WallNS)
		res.Events = events
	}
	return res, j.waitErr
}

// snapshot sums the workers' published counter snapshots and the
// injection queue's leftovers into one Stats. It is safe to call from
// any goroutine while a resident pool runs: workers publish immutable
// snapshots at coarse points (so a busy worker's contribution lags by
// at most one spark execution), and the pool sizes are the deque's
// lock-free point-in-time estimates.
func (r *rt) snapshot() Stats {
	var s Stats
	for _, w := range r.workers {
		if p := w.pub.Load(); p != nil {
			s.Add(*p)
		}
		s.SparksLeftover += int64(w.pool.Size())
	}
	r.injectMu.Lock()
	s.SparksLeftover += int64(len(r.inject) - r.injectHead)
	r.injectMu.Unlock()
	return s
}

// pushInject queues a spark from a thread that owns no deque.
func (r *rt) pushInject(t *graph.Thunk, j *Job) {
	r.injectMu.Lock()
	r.inject = append(r.inject, injEntry{t: t, job: j})
	r.injectMu.Unlock()
}

// injectCompactAt bounds how long a consumed prefix may grow before
// popInject slides the live suffix down.
const injectCompactAt = 32

// popInject removes the oldest injected spark, if any. The queue is
// FIFO so a job main's sparks start in creation order — under a LIFO
// pop, its newest spark would always run first and its earliest could
// starve behind a growing backlog. (The per-worker deques stay LIFO at
// the owner end on purpose: the newest own spark is the cache-warm one,
// as in GHC.)
//
// Consumed slots are nilled at once — re-slicing the head away
// (inject = inject[1:]) would keep every run thunk reachable through
// the backing array for the rest of the run — and once the dead prefix
// passes injectCompactAt and outweighs the live tail, the tail is
// copied down so the array itself shrinks back. The slots the tail
// vacated are zeroed too: a copy left beyond len would pin its spark,
// and through the spark's closure a whole finished job, in a resident
// pool until later pushes happened to overwrite it.
func (r *rt) popInject() (*graph.Thunk, *Job) {
	r.injectMu.Lock()
	defer r.injectMu.Unlock()
	if r.injectHead == len(r.inject) {
		r.inject = r.inject[:0]
		r.injectHead = 0
		return nil, nil
	}
	e := r.inject[r.injectHead]
	r.inject[r.injectHead] = injEntry{}
	r.injectHead++
	if e.job != nil {
		// Under injectMu, so a retiring job's purge (same lock) either
		// removed this entry or sees its conversion in flight: after
		// purge + active==0 no worker touches the job again.
		e.job.active.Add(1)
	}
	if r.injectHead >= injectCompactAt && r.injectHead*2 >= len(r.inject) {
		n := copy(r.inject, r.inject[r.injectHead:])
		clear(r.inject[n:])
		r.inject = r.inject[:n]
		r.injectHead = 0
	}
	return e.t, e.job
}

// purgeInject drops every queued spark belonging to j — called when a
// job retires, so a completed job's speculative leftovers neither
// retain its thunks for the pool's lifetime nor waste worker time.
// Returns how many sparks were dropped.
func (r *rt) purgeInject(j *Job) int64 {
	r.injectMu.Lock()
	defer r.injectMu.Unlock()
	live := r.inject[r.injectHead:]
	n := 0
	for _, e := range live {
		if e.job != j {
			live[n] = e
			n++
		}
	}
	for i := n; i < len(live); i++ {
		live[i] = injEntry{}
	}
	r.inject = live[:n]
	r.injectHead = 0
	return int64(len(live) - n)
}
