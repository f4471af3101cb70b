// Package native is the real-concurrency counterpart of the simulated
// GpH runtime: it executes the same runtime-agnostic GpH program bodies
// (exec.Program — sumEuler, matmul, APSP, the strategies combinators) on
// actual goroutines, so the paper's headline optimisations become
// measurable in wall-clock time on real hardware instead of only in
// virtual time.
//
// Architecture (one-to-one with the simulated work-stealing runtime):
//
//   - N workers, one per requested core. Worker 0 is the caller's
//     goroutine running the program's main function (the GpH main
//     thread); workers 1..N-1 are stealing loops on fresh goroutines.
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
//   - A worker that forces a black-holed thunk does not park on a
//     waiter list: it polls the atomic state, stealing and running
//     other sparks while it waits (leapfrogging). A lost wakeup is
//     therefore impossible by construction.
//
// Burn and Alloc are no-ops: real time is consumed by actually
// computing, and Go's allocator is real. The virtual-time simulation
// remains the instrument for controlled interleaving studies; this
// backend complements it with wall-clock ground truth (see DESIGN.md).
//
// Observability: every counter is maintained per worker as plain
// owner-written fields (published to mid-run samplers as immutable
// snapshots, summed into the aggregate Stats after the run's WaitGroup
// barrier), and Config.EventLog turns on the wall-clock eventlog
// (internal/eventlog). Each run additionally records what Go's GC did
// while it ran — cycles, total pause, bytes allocated (Result.GC) —
// and Config.GCPercent pins GOGC for the run, which is how the GOGC
// sweep reproduces the paper's allocation-area-size experiment.
package native

import (
	"errors"
	"fmt"
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
	"parhask/internal/tune"
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
	// EventLog enables the per-worker wall-clock event rings. The run's
	// Result then carries the drained eventlog.Log, and Result.Trace
	// reduces it to an EdenTV-style timeline. Costs one monotonic clock
	// read plus one owner-local append per event on the hot path;
	// disabled, the hooks are nil checks only.
	EventLog bool
	// EventLogConfig tunes the event rings (zero value = defaults).
	EventLogConfig eventlog.Config
	// Sampler, if non-nil, is called once just before the run starts
	// with a snapshot function that may be invoked from any goroutine
	// while the run is in flight; each call returns the counters
	// accumulated so far (SparksLeftover = sparks currently pooled).
	// This is the mid-run observability hook: monitoring loops sample
	// it without perturbing the workers — each worker publishes an
	// immutable counter snapshot at coarse points (spark boundaries,
	// idle transitions), so a sample lags a busy worker by at most one
	// spark execution and costs the workers nothing when no Sampler is
	// configured.
	Sampler func(snapshot func() Stats)
	// Faults, if non-nil, arms the deterministic fault-injection plane
	// (internal/faults): spark-indexed panics, process-indexed fork
	// panics, and per-worker stalls. When nil every injection hook is a
	// single predictable nil check (the benchmark's faults.armed_overhead_x row).
	Faults *faults.Injector
	// Deadline, if non-zero, bounds the run's wall-clock time: a run
	// still in flight when it elapses is aborted with a structured
	// *faults.DeadlockError carrying each blocked worker's diagnostics,
	// instead of hanging. (A spark stuck in a non-cooperative infinite
	// computation cannot be preempted — the deadline unblocks every
	// *waiting* thread; a busy-looping mutator keeps its goroutine, as
	// in GHC.)
	Deadline time.Duration
	// Metrics, if non-nil, registers the pool's telemetry series
	// (internal/metrics): job latency histograms, spark/steal/GC/fault
	// rates. Honoured by NewPool only (batch runs report through
	// Result); when nil — the default — every recording hook is a nil
	// check, the same contract as the eventlog and fault plane.
	Metrics *pmetrics.Registry
	// Backoff, if non-nil, replaces the fixed idle-wait policy (spin
	// 64 rounds, sleeps doubling 10µs→1.28ms, no parking) with another
	// fixed one: a different spin budget, sleep ladder or parking
	// threshold (tune.ParseBackoff, the -backoff flag). Nil keeps the
	// default schedule.
	Backoff *tune.Backoff
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
// per worker (Result.PerWorker), or mid-run (Config.Sampler).
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
	Forks           int64 `json:"forks"`            // threads created with Fork
	BackoffSleeps   int64 `json:"backoff_sleeps"`   // idle backoff sleeps taken (worker loops)
	BackoffNS       int64 `json:"backoff_ns"`       // cumulative time spent in backoff sleeps
	Parks           int64 `json:"parks"`            // times a worker parked on the pool condvar
	ParkedNS        int64 `json:"parked_ns"`        // cumulative time spent parked
}

// Add accumulates o into s field-wise.
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
	s.Forks += o.Forks
	s.BackoffSleeps += o.BackoffSleeps
	s.BackoffNS += o.BackoffNS
	s.Parks += o.Parks
	s.ParkedNS += o.ParkedNS
}

// counters is the atomic counter set for contributors without a worker
// identity: forked threads, which may bump it from many goroutines at
// once. Workers use the plain owner-written wcounters instead.
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
	forks           atomic.Int64
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
		Forks:           c.forks.Load(),
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
	// Cycles is the number of GC cycles completed during the run.
	Cycles int64 `json:"cycles"`
	// PauseNS is the total stop-the-world pause time during the run.
	PauseNS int64 `json:"pause_ns"`
	// BytesAlloc is the cumulative heap allocation of the run.
	BytesAlloc int64 `json:"bytes_alloc"`
	// ArenaChunks / ArenaThunks describe the per-worker thunk arenas:
	// chunks allocated and thunks handed out of them. ArenaThunks
	// thunks cost ArenaChunks allocator calls instead of ArenaThunks.
	ArenaChunks int64 `json:"arena_chunks"`
	ArenaThunks int64 `json:"arena_thunks"`
	// Shared reports that another run's (or resident job's) measurement
	// window overlapped this one: Cycles/PauseNS/BytesAlloc then
	// describe the whole process over the interval, not this run
	// exclusively, because Go's collector is process-global (see
	// internal/gcscope).
	Shared bool `json:"shared,omitempty"`
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
	// Stats is the whole-run aggregate (every worker plus forked
	// threads).
	Stats Stats
	// PerWorker breaks the counters down by worker id. Forked threads'
	// contributions appear only in the aggregate (they have no worker).
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

// errAborted unwinds a worker or the main thread after another worker
// already recorded the run's failure.
var errAborted = errors.New("native: run aborted")

// errJobAborted unwinds a resident job's threads (and workers blocked
// on its thunks) after the job — not the pool — recorded a failure.
var errJobAborted = errors.New("native: job aborted")

// panicErr turns a recovered panic value into an error. Error panic
// values are wrapped with %w so structured failures (an injected
// *faults.InjectedPanic, a *graph.PoisonError) stay matchable with
// errors.As through the run's top-level error.
func panicErr(prefix string, p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return fmt.Errorf("%s: %v", prefix, p)
}

// rt is one native runtime instance.
type rt struct {
	cfg     Config
	workers []*worker

	// sampled gates counter publication: workers snapshot their plain
	// counters for samplers only when a Sampler is configured, so
	// unsampled runs pay nothing.
	sampled bool

	// extern counts contributions from forked threads (no worker
	// identity); every worker's own counters live on the worker.
	extern counters

	// events is the wall-clock eventlog (nil when disabled).
	events *eventlog.Log

	// done tells the stealing loops the main function returned; failed
	// tells every spinning force to unwind because a spark panicked.
	done   atomic.Bool
	failed atomic.Bool

	errOnce sync.Once
	err     error

	// externBlocked counts forked threads currently inside a blocked
	// force, for the deadline watchdog's diagnostics (forked threads
	// have no worker whose blocked gauge could be read).
	externBlocked atomic.Int64

	// resident marks an rt owned by a Pool rather than a one-shot Run:
	// workers run residentLoop (spark panics fail the tagged job and the
	// loop restarts) instead of stealLoop (any panic fails the run).
	resident bool

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
	// (PushBottom is owner-only): forked threads, and in resident mode
	// every job's main thread. Workers drain it when their steals come
	// up empty. Each entry carries the job it belongs to (nil in batch
	// runs), so resident workers can attribute fault injection and
	// failures. injectHead indexes the next unconsumed spark — consumed
	// slots are zeroed immediately and the prefix is compacted away
	// periodically, so the backing array never retains thunks the
	// runtime already ran (see popInject).
	injectMu   sync.Mutex
	inject     []injEntry
	injectHead int

	// bo is the pool's idle-wait policy: the legacy fixed schedule by
	// default, the caller's Config.Backoff otherwise. Never nil after
	// construction.
	bo *tune.Backoff

	// The park lot. A worker whose backoff ladder reaches the parking
	// threshold blocks on parkCond instead of sleep-looping; producers
	// (Par, pushInject) wake it. The lost-wakeup handshake is
	// Dekker-style through two sequentially-consistent atomics: the
	// parker increments nparked *then* re-checks every deque and the
	// injection queue (under parkMu) before waiting; a producer
	// publishes its spark *then* loads nparked. Whichever order the two
	// interleave in, either the parker sees the spark or the producer
	// sees the parker. parkGen (guarded by parkMu) versions the waits
	// so a wake between the re-check and the Wait is never lost either.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	parkGen  uint64
	nparked  atomic.Int64

	stealers sync.WaitGroup
	forks    sync.WaitGroup
}

// defaultBackoff is the shared legacy policy for runs without an
// explicit one: the fixed idleWait schedule, parking off.
var defaultBackoff = tune.DefaultBackoffPolicy()

// newRT builds the runtime core shared by Run and NewPool: workers,
// backoff policy, park lot.
func newRT(cfg Config, resident bool) *rt {
	r := &rt{cfg: cfg, resident: resident, sampled: cfg.Sampler != nil, bo: cfg.Backoff}
	if r.bo == nil {
		r.bo = defaultBackoff
	}
	r.parkCond = sync.NewCond(&r.parkMu)
	r.workers = make([]*worker, cfg.Workers)
	for i := range r.workers {
		r.workers[i] = newWorker(r, i)
	}
	return r
}

// haveWork reports whether any deque or the injection queue holds a
// spark — the parker's final re-check. Called with parkMu held; takes
// injectMu inside it (the only permitted nesting of the two).
func (r *rt) haveWork() bool {
	for _, w := range r.workers {
		if !w.pool.Empty() {
			return true
		}
	}
	r.injectMu.Lock()
	depth := len(r.inject) - r.injectHead
	r.injectMu.Unlock()
	return depth > 0
}

// wake unparks every parked worker. The fast path — no one parked —
// is the single atomic load producers pay; rt.nparked is only ever
// non-zero while some worker holds a parking intent, so unparked
// runs never touch parkMu.
func (r *rt) wake() {
	if r.nparked.Load() == 0 {
		return
	}
	r.parkMu.Lock()
	r.parkGen++
	r.parkCond.Broadcast()
	r.parkMu.Unlock()
}

// injEntry is one injection-queue slot: a spark and the job it belongs
// to (nil for batch runs and job-less forks).
type injEntry struct {
	t   *graph.Thunk
	job *Job
}

// Run executes main on a native work-stealing runtime and returns its
// value, the wall-clock time, and the runtime counters. The result is
// identical to the same program's simulated and sequential runs
// (referential transparency); only the time is real.
func Run(cfg Config, main exec.Program) (*Result, error) {
	if main == nil {
		return nil, errors.New("native: nil main")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.GCPercent != 0 {
		// The GOGC knob is process-global; the lease serialises
		// conflicting set/restore pairs so concurrent runs cannot corrupt
		// each other's targets (internal/gcscope).
		defer gcscope.LeaseFn(cfg.GCPercent)()
	}
	r := newRT(cfg, false)

	gogc := readGOGC()
	gcWin := gcscope.Begin()

	start := time.Now()
	if cfg.EventLog {
		r.events = eventlog.New(start, cfg.Workers, cfg.EventLogConfig)
		for i, w := range r.workers {
			w.ev = r.events.Buf(i)
		}
	}
	if cfg.Sampler != nil {
		cfg.Sampler(r.snapshot)
	}
	// The deadline watchdog converts a hung run into a structured
	// *faults.DeadlockError: fail() trips rt.failed, which every blocked
	// force polls, so the whole runtime unwinds through the existing
	// failure protocol. Per-worker blocked gauges supply the
	// diagnostics. Timer-vs-finish races are benign: the watchdog
	// checks done first, and a run that loses the race was at the
	// deadline anyway.
	var watchdog *time.Timer
	if cfg.Deadline > 0 {
		watchdog = time.AfterFunc(cfg.Deadline, func() {
			if r.done.Load() {
				return
			}
			r.fail(r.deadlockError(time.Since(start)))
		})
		defer watchdog.Stop()
	}
	for _, w := range r.workers[1:] {
		r.stealers.Add(1)
		go w.stealLoop()
	}

	w0 := r.workers[0]
	var value graph.Value
	runErr := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				if p == errAborted {
					err = r.err // carries the original failure
				} else {
					err = panicErr("native: main panicked", p)
				}
				// Claims the dying main stack still holds will never be
				// updated; poison them so nothing ever blocks on them
				// again (matters when a supervisor retries on the same
				// heap graph).
				w0.poisonClaims(err)
			}
		}()
		if w0.ev != nil {
			w0.ev.Emit(eventlog.RunBegin)
		}
		value = main(&w0.ctx)
		if w0.ev != nil {
			w0.ev.Emit(eventlog.RunEnd)
		}
		return nil
	}()

	if runErr != nil {
		// A main-thread panic must abort the run the way a spark panic
		// does: fail() trips rt.failed, so a stealer blocked inside a
		// force on a thunk main will now never update unwinds instead of
		// spinning on it forever (done alone does not reach BlockOnThunk).
		r.fail(runErr)
	}
	r.done.Store(true)
	r.wake() // parked stealers must observe done to exit
	w0.maybePublish()
	r.stealers.Wait()
	r.forks.Wait()
	wall := time.Since(start)

	gcDelta := gcWin.End()

	if runErr == nil {
		runErr = r.err
	}

	res := &Result{Value: value, WallNS: wall.Nanoseconds(), Workers: cfg.Workers}
	res.GC = GCStats{
		GOGC:       gogc,
		Cycles:     gcDelta.Cycles,
		PauseNS:    gcDelta.PauseNS,
		BytesAlloc: gcDelta.BytesAlloc,
		Shared:     gcDelta.Shared,
	}
	res.PerWorker = make([]Stats, cfg.Workers)
	res.Stats = r.extern.load()
	res.Stats.SparksLeftover = int64(len(r.inject) - r.injectHead)
	for i, w := range r.workers {
		// Safe plain reads: the WaitGroup barrier (and, for worker 0,
		// goroutine identity) orders every owner write before these.
		ws := w.ctr.stats()
		ws.SparksLeftover = int64(w.pool.Size())
		res.PerWorker[i] = ws
		res.Stats.Add(ws)
		chunks, thunks := w.arena.Stats()
		res.GC.ArenaChunks += chunks
		res.GC.ArenaThunks += thunks
	}
	if r.events != nil {
		r.events.Close(res.WallNS)
		res.Events = r.events
	}
	if runErr != nil {
		// Failed runs still return the partial Result: the event rings
		// are drained and closed above (the stealers/forks barrier has
		// already been crossed), so tracedump can render the timeline of
		// a crashed or deadlocked run for post-mortems. Only the value
		// is withheld.
		res.Value = nil
		return res, runErr
	}
	return res, nil
}

// deadlockError builds the watchdog's structured report from the
// per-worker blocked gauges. Reads are racy by nature (the run is live)
// but the gauges are atomic, so the report is a consistent-enough
// point-in-time sample.
func (r *rt) deadlockError(elapsed time.Duration) *faults.DeadlockError {
	de := &faults.DeadlockError{Backend: "native", Reason: "deadline", Elapsed: elapsed}
	for _, w := range r.workers {
		if w.blocked.Load() > 0 {
			name := fmt.Sprintf("stealer-%d", w.id)
			if w.id == 0 {
				name = "main"
			}
			de.Blocked = append(de.Blocked, faults.BlockedThread{
				PE: w.id, Thread: name, Reason: "thunk", Chan: -1, Peer: -1,
			})
		}
	}
	if n := r.externBlocked.Load(); n > 0 {
		de.Blocked = append(de.Blocked, faults.BlockedThread{
			PE: -1, Thread: fmt.Sprintf("%d forked", n), Reason: "thunk", Chan: -1, Peer: -1,
		})
	}
	return de
}

// snapshot sums the workers' published counter snapshots and the
// forked-thread counters into one Stats. It is safe to call from any
// goroutine while the run is in flight: workers publish immutable
// snapshots at coarse points (so a busy worker's contribution lags by
// at most one spark execution), and the pool sizes are the deque's
// lock-free point-in-time estimates.
func (r *rt) snapshot() Stats {
	s := r.extern.load()
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

// fail records the first worker failure and aborts the run.
func (r *rt) fail(err error) {
	r.errOnce.Do(func() { r.err = err })
	r.failed.Store(true)
	r.done.Store(true)
	r.wake() // parked workers must observe the abort
}

// fork starts body as a real goroutine. Its sparks go to the shared
// injection queue; Run waits for all forks before returning. In
// resident mode the fork belongs to a job: its counters route to the
// job, its failure fails only that job, and the job's Wait covers it.
func (r *rt) fork(name string, body func(exec.Ctx), j *Job) {
	r.forks.Add(1)
	if j != nil {
		j.forks.Add(1)
	}
	go func() {
		defer r.forks.Done()
		if j != nil {
			defer j.forks.Done()
		}
		c := Ctx{rt: r, job: j}
		defer func() {
			if p := recover(); p != nil {
				var err error
				switch p {
				case errAborted:
					err = r.err // set before rt.failed, so visible here
				case errJobAborted:
					err = j.takeErr()
				default:
					err = panicErr(fmt.Sprintf("native: forked thread %q panicked", name), p)
				}
				// Orphaned-claim recovery: thunks this dead thread still
				// holds eager claims on would block their forcers forever;
				// poisoning routes those forcers to the failure path.
				if n := poisonClaims(c.claims, err, nil); n > 0 {
					r.poisoned.Add(n)
				}
				if p != errAborted && p != errJobAborted {
					if j != nil {
						j.fail(err)
					} else {
						r.fail(err)
					}
				}
			}
		}()
		if inj := c.faults(); inj != nil {
			if f := inj.ProcFault(); f != nil {
				panic(f)
			}
		}
		body(&c)
	}()
}

// pushInject queues a spark from a thread that owns no deque, then
// wakes the park lot — after releasing injectMu, so the parker's
// haveWork (parkMu → injectMu) never deadlocks against this path.
func (r *rt) pushInject(t *graph.Thunk, j *Job) {
	r.injectMu.Lock()
	r.inject = append(r.inject, injEntry{t: t, job: j})
	r.injectMu.Unlock()
	r.wake()
}

// injectCompactAt bounds how long a consumed prefix may grow before
// popInject slides the live suffix down.
const injectCompactAt = 32

// popInject removes the oldest injected spark, if any. The queue is
// FIFO so forked threads' sparks start in creation order — under the
// previous LIFO pop, a fork's newest spark always ran first and its
// earliest could starve behind a growing backlog. (The per-worker
// deques stay LIFO at the owner end on purpose: the newest own spark is
// the cache-warm one, as in GHC.)
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
