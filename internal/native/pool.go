package native

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/gcscope"
	"parhask/internal/graph"
)

// Submission errors. The serve layer maps these to HTTP backpressure
// codes; they are sentinel values so callers can errors.Is them.
var (
	// ErrPoolClosed rejects a Submit after Close completed.
	ErrPoolClosed = errors.New("native: pool closed")
	// ErrPoolDraining rejects a Submit made while Close is waiting for
	// in-flight jobs.
	ErrPoolDraining = errors.New("native: pool draining")
)

// Pool is the resident form of the native work-stealing runtime: the
// workers, their deques and their thunk arenas are created once and
// stay up, and programs are submitted as jobs instead of each Run
// paying worker startup and teardown. Unlike Run, no worker is the
// caller's goroutine — every worker is a resident stealing loop, and
// each job's main function runs on its own goroutine, feeding the
// workers through the injection queue.
//
// Isolation: each job carries its own result cell, failure latch,
// deadline, fault budget, counter set and (optionally) eventlog scope.
// A spark panic, injected fault or deadline expiry fails only the job
// the work belonged to — the worker poisons the dead job's claims (so
// its waiters unwind through the ordinary poison protocol) and goes
// back to stealing. GC telemetry is deliberately pool-scoped: Go's
// collector is process-global, so per-job deltas would be fiction; GC
// reports what the collector did since the pool started, flagged
// Shared if any batch Run overlapped (see internal/gcscope).
type Pool struct {
	rt    *rt
	start time.Time

	// gcMu guards the pool's long-lived gcscope window (Sample from
	// observers vs End from Close).
	gcMu  sync.Mutex
	gcWin *gcscope.Window
	gogc  int
	// release ends the pool's GOGC lease (nil when unleased).
	release func()

	// jobsMu guards the live-job table, the retired fold and the
	// admission flags. Retirement folds a job's final counters into
	// retired before removing it from live, under this one lock, so
	// Snapshot sums are monotone.
	jobsMu   sync.Mutex
	live     map[int64]*Job
	retired  Stats
	jobSeq   int64
	draining bool
	closed   bool

	jobs       sync.WaitGroup
	jobsDone   atomic.Int64
	jobsFailed atomic.Int64

	// pm records the pool's latency histograms and fault counters
	// (nil unless Config.Metrics was set — the disabled path is a nil
	// check, like the eventlog).
	pm *poolMetrics
}

// JobConfig scopes one submitted job.
type JobConfig struct {
	// Deadline bounds the job's wall-clock time (from Submit). A job
	// still in flight when it elapses fails with a structured
	// *faults.DeadlockError; the pool and its other jobs are untouched.
	Deadline time.Duration
	// Faults, if non-nil, is this job's private fault budget: it
	// governs the job's root sparks (injection-queue entries), its
	// forked threads, and nothing else — neighbouring jobs see no
	// injected failures.
	Faults *faults.Injector
	// EventLog gives the job a private event ring set: buffer 0 is fed
	// by the job's main thread (run/block brackets, spark pushes), and
	// buffer 1+w is worker w's job-scoped ring — each worker mirrors
	// the brackets of the sparks it converts *for this job* into it, so
	// the drained log is one request's cross-worker timeline. Pool-wide
	// worker rings (Config.EventLog on Run) are unaffected.
	EventLog bool
	// EventLogConfig tunes the rings (zero value = defaults).
	EventLogConfig eventlog.Config
	// TraceID, if non-zero, tags the job's event ring with a TraceMark
	// event carrying this id — the serve layer's handle for pulling one
	// request's timeline off a live server. Ignored unless EventLog.
	TraceID int32
}

// Job is one resident submission: a program plus its isolation scope.
type Job struct {
	id   int64
	pool *Pool

	// ctr is the job's exclusive counter set, written only by the job's
	// main thread and its forks (atomic: forks are concurrent). Worker-
	// side execution (conversions, steals) stays in the per-worker
	// stats — that split is what makes pool snapshots monotone: nothing
	// writes ctr after the job's threads have joined.
	ctr counters

	// blocked gauges the job's nil-worker threads currently inside a
	// blocked force (deadline diagnostics).
	blocked atomic.Int64

	// active gauges workers currently converting this job's injected
	// sparks: incremented under injectMu at pop, decremented when the
	// conversion ends (normally in runSpark, on panic at the containing
	// recovery). runJob waits for it to reach zero after purging the
	// queue, so a job's outcome is decided only after every worker has
	// let go of its work — a worker-side failure can't land after the
	// job reported success, and a retired job is untouchable.
	active atomic.Int64

	failed  atomic.Bool
	errOnce sync.Once
	err     error

	forks    sync.WaitGroup
	deadline *time.Timer
	faults   *faults.Injector

	events *eventlog.Log
	ev     *eventlog.Buf

	start   time.Time
	done    chan struct{}
	result  *JobResult
	waitErr error
}

// JobResult is the outcome of one resident job.
type JobResult struct {
	// Value is what the job's main function returned (nil on failure).
	Value graph.Value
	// WallNS is the job's latency: Submit to completion, including its
	// forks' joins, in nanoseconds.
	WallNS int64
	// Stats is the job's exclusive counter set — the activity of its
	// main thread and forks (sparks created, blocked forces, forks).
	// Execution-side counters (conversions, steals) are pool-wide; read
	// them from Pool.Snapshot.
	Stats Stats
	// Events is the job's private eventlog (nil unless requested).
	Events *eventlog.Log
}

// Wall returns the job latency as a duration.
func (r *JobResult) Wall() time.Duration { return time.Duration(r.WallNS) }

// JobHandle is the caller's reference to a submitted job.
type JobHandle struct {
	job *Job
}

// Wait blocks until the job completes and returns its result. On
// failure the result still carries the job's counters and eventlog.
func (h *JobHandle) Wait() (*JobResult, error) {
	<-h.job.done
	return h.job.result, h.job.waitErr
}

// Done returns a channel closed when the job completes.
func (h *JobHandle) Done() <-chan struct{} { return h.job.done }

// workerBuf returns worker id's job-scoped event ring, or nil when the
// job (or its eventlog) doesn't exist. Only worker id may write to the
// returned buffer, and only while it holds one of the job's sparks
// (active > 0) — runJob's active==0 wait is the barrier that makes the
// post-run drain safe.
func (j *Job) workerBuf(id int) *eventlog.Buf {
	if j == nil || j.events == nil {
		return nil
	}
	return j.events.Buf(1 + id)
}

// fail records the job's first failure. Blocked forces working for the
// job poll the latch, so no wakeup is needed.
func (j *Job) fail(err error) {
	j.errOnce.Do(func() { j.err = err })
	j.failed.Store(true)
}

// takeErr reads the failure after observing failed=true (errOnce.Do
// happens-before the Store, so err is visible).
func (j *Job) takeErr() error { return j.err }

// NewPool starts a resident pool: cfg.Workers stealing loops, arenas
// warm, ready for Submit. Config fields are honoured as in Run, except
// that Config.EventLog is per-job in resident mode (use
// JobConfig.EventLog) and Config.Deadline/Faults become per-job too
// (JobConfig); pool-wide Faults still apply to untagged work.
// Config.GCPercent, if set, is leased for the pool's whole lifetime.
// Config.Sampler, if set, receives the pool's Snapshot function.
func NewPool(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{start: time.Now(), live: map[int64]*Job{}}
	if cfg.GCPercent != 0 {
		p.release = gcscope.LeaseFn(cfg.GCPercent)
	}
	r := newRT(cfg, true)
	// Resident pools are always observable: Snapshot may be called at
	// any time (serve's /stats, metrics collectors), so workers publish
	// coarse snapshots regardless of Sampler.
	r.sampled = true
	p.rt = r
	p.gogc = readGOGC()
	p.gcWin = gcscope.Begin()
	for _, w := range r.workers {
		r.stealers.Add(1)
		go w.residentLoop()
	}
	if cfg.Sampler != nil {
		cfg.Sampler(p.Snapshot)
	}
	if cfg.Metrics != nil {
		p.pm = newPoolMetrics(cfg.Metrics, p)
		r.pm = p.pm
	}
	return p
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.rt.cfg.Workers }

// Submit starts main as a resident job and returns its handle. The job
// begins executing immediately on its own goroutine; admission control
// (queueing, concurrency limits) belongs to the layer above
// (internal/serve). Submit fails only when the pool is draining or
// closed.
func (p *Pool) Submit(jc JobConfig, main exec.Program) (*JobHandle, error) {
	if main == nil {
		return nil, errors.New("native: nil job main")
	}
	p.jobsMu.Lock()
	if p.closed {
		p.jobsMu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.draining {
		p.jobsMu.Unlock()
		return nil, ErrPoolDraining
	}
	p.jobSeq++
	j := &Job{id: p.jobSeq, pool: p, faults: jc.Faults,
		start: time.Now(), done: make(chan struct{})}
	if jc.EventLog {
		j.events = eventlog.New(j.start, 1+len(p.rt.workers), jc.EventLogConfig)
		j.ev = j.events.Buf(0)
		if jc.TraceID != 0 {
			// Emitted before the job is visible to any worker (it is not
			// yet in live nor in the injection queue), so the single-writer
			// discipline holds.
			j.ev.EmitArg(eventlog.TraceMark, jc.TraceID)
		}
	}
	p.live[j.id] = j
	p.jobs.Add(1)
	p.jobsMu.Unlock()

	if jc.Deadline > 0 {
		j.deadline = time.AfterFunc(jc.Deadline, func() {
			if j.failed.Load() {
				return
			}
			select {
			case <-j.done:
				return
			default:
			}
			j.fail(p.jobDeadlockError(j, time.Since(j.start)))
		})
	}
	go p.runJob(j, main)
	return &JobHandle{job: j}, nil
}

// jobDeadlockError builds the structured deadline failure for one job
// from the gauges we can attribute to it: its own blocked threads. (A
// worker blocked while converting the job's spark shows up in the
// pool-level gauges, not here — worker state is shared.)
func (p *Pool) jobDeadlockError(j *Job, elapsed time.Duration) *faults.DeadlockError {
	de := &faults.DeadlockError{Backend: "native", Reason: "deadline", Elapsed: elapsed}
	if n := j.blocked.Load(); n > 0 {
		de.Blocked = append(de.Blocked, faults.BlockedThread{
			PE: -1, Thread: fmt.Sprintf("job-%d (%d blocked)", j.id, n),
			Reason: "thunk", Chan: -1, Peer: -1,
		})
	}
	return de
}

// runJob is the job's main-thread goroutine: the resident counterpart
// of Run's caller-goroutine bracket, scoped to one job.
func (p *Pool) runJob(j *Job, main exec.Program) {
	defer p.jobs.Done()
	if p.pm != nil {
		// Scheduling latency: Submit to the job goroutine actually
		// starting (goroutine wakeup + admission bookkeeping).
		p.pm.schedWait.Observe(time.Since(j.start).Nanoseconds())
	}
	c := Ctx{rt: p.rt, job: j, ev: j.ev}
	var value graph.Value
	runErr := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				switch v {
				case errAborted:
					err = p.rt.err
				case errJobAborted:
					err = j.takeErr()
				default:
					err = panicErr(fmt.Sprintf("native: job %d main panicked", j.id), v)
				}
				// Orphaned-claim recovery, as in Run: poison what the dying
				// main stack still holds so nothing blocks on it forever.
				if n := poisonClaims(c.claims, err, nil); n > 0 {
					p.rt.poisoned.Add(n)
				}
			}
		}()
		if j.ev != nil {
			j.ev.Emit(eventlog.RunBegin)
		}
		value = main(&c)
		if j.ev != nil {
			j.ev.Emit(eventlog.RunEnd)
		}
		return nil
	}()
	if runErr != nil {
		j.fail(runErr)
	}
	j.forks.Wait()
	// Drop the job's still-queued speculative sparks: nothing will need
	// them (the main thread has returned or died), and leaving them
	// would retain the job's heap graph for the pool's lifetime.
	leftover := p.rt.purgeInject(j)
	// Wait for workers still converting this job's sparks to let go
	// (the purge and the pop share injectMu, so after it every
	// remaining conversion is visible in the gauge). Only then is the
	// outcome decided: a worker-side failure cannot land after success
	// is reported, and a retired job is untouched by any worker. The
	// deadline stays armed across this wait so a worker blocked inside
	// the job's spark still gets unwound.
	for spins := 0; j.active.Load() > 0; spins++ {
		idleWait(spins)
	}
	if j.deadline != nil {
		j.deadline.Stop()
	}

	if runErr == nil && j.failed.Load() {
		runErr = j.takeErr() // a fork or worker failed the job
	}
	wall := time.Since(j.start)
	res := &JobResult{WallNS: wall.Nanoseconds(), Stats: j.ctr.load()}
	res.Stats.SparksLeftover = leftover
	if j.events != nil {
		j.events.Close(res.WallNS)
		res.Events = j.events
	}
	if runErr == nil {
		res.Value = value
	}
	j.result = res
	j.waitErr = runErr
	p.retire(j, runErr)
	close(j.done)
}

// retire folds the job's final counters into the pool's retired total
// and removes it from the live table — one critical section, so a
// Snapshot sees the counters exactly once (live or retired, never
// neither). No thread writes j.ctr after the forks joined, so the fold
// is the job's true final count.
func (p *Pool) retire(j *Job, err error) {
	p.jobsMu.Lock()
	p.retired.Add(j.ctr.load())
	delete(p.live, j.id)
	p.jobsMu.Unlock()
	if err != nil {
		p.jobsFailed.Add(1)
	} else {
		p.jobsDone.Add(1)
	}
	if p.pm != nil {
		h := p.pm.wallOK
		if err != nil {
			h = p.pm.wallErr
		}
		h.Observe(j.result.WallNS)
	}
}

// Inflight reports how many jobs are currently live.
func (p *Pool) Inflight() int {
	p.jobsMu.Lock()
	defer p.jobsMu.Unlock()
	return len(p.live)
}

// JobsDone and JobsFailed report completed-job counts.
func (p *Pool) JobsDone() int64   { return p.jobsDone.Load() }
func (p *Pool) JobsFailed() int64 { return p.jobsFailed.Load() }

// Snapshot sums the pool's counters: every worker's published
// snapshot, the batch-extern set, all retired jobs, and every live
// job's exclusive counters. Safe from any goroutine at any time; all
// cumulative fields are monotone non-decreasing across calls
// (SparksLeftover is a gauge of currently pooled sparks).
func (p *Pool) Snapshot() Stats {
	s := p.rt.snapshot()
	p.jobsMu.Lock()
	s.Add(p.retired)
	for _, j := range p.live {
		s.Add(j.ctr.load())
	}
	p.jobsMu.Unlock()
	return s
}

// GC reports what Go's collector did since the pool started. It is
// pool-scoped on purpose: the collector is process-global, so per-job
// deltas would misattribute; Shared flags intervals during which some
// other measurement window (a batch Run) overlapped the pool's.
func (p *Pool) GC() GCStats {
	p.gcMu.Lock()
	d := p.gcWin.Sample()
	p.gcMu.Unlock()
	return GCStats{GOGC: p.gogc, Cycles: d.Cycles, PauseNS: d.PauseNS,
		BytesAlloc: d.BytesAlloc, Shared: d.Shared}
}

// Uptime reports how long the pool has been resident.
func (p *Pool) Uptime() time.Duration { return time.Since(p.start) }

// Close drains the pool: new submissions are rejected, in-flight jobs
// run to completion (bound their time with JobConfig.Deadline), then
// the workers exit and the GOGC lease is released. Idempotent.
func (p *Pool) Close() {
	p.jobsMu.Lock()
	if p.draining || p.closed {
		closed := p.closed
		p.jobsMu.Unlock()
		if !closed {
			p.jobs.Wait() // concurrent Close: wait for the first to finish
		}
		return
	}
	p.draining = true
	p.jobsMu.Unlock()

	p.jobs.Wait()
	p.rt.done.Store(true)
	p.rt.wake() // parked workers must observe done
	p.rt.stealers.Wait()
	p.gcMu.Lock()
	p.gcWin.End()
	p.gcMu.Unlock()
	if p.release != nil {
		p.release()
	}
	p.jobsMu.Lock()
	p.closed = true
	p.jobsMu.Unlock()
}

// residentLoop is the body of a pool worker: stealPass until the pool
// closes. Each pass absorbs one spark panic — poisoning the dead
// work's claims and failing the owning job — and the loop restarts, so
// one job's failure never costs the pool a worker.
func (w *worker) residentLoop() {
	defer w.rt.stealers.Done()
	for !w.rt.done.Load() {
		w.stealPass()
	}
	w.maybePublish()
}

// stealPass is one panic-scope of a resident worker: the same
// take/run/back-off loop as stealLoop, but a spark panic is contained
// here instead of failing the runtime. The recovery attributes the
// failure to the job whose spark was converting (w.curJob, left in
// place by runSpark's panic path); an untagged spark's panic reaches
// its victims through the poisoned claims alone.
func (w *worker) stealPass() {
	defer func() {
		if p := recover(); p != nil {
			err := w.sparkPanicErr(p)
			w.poisonClaims(err)
			if j := w.curJob; j != nil {
				if p != errAborted {
					j.fail(err)
				}
				j.active.Add(-1)
			}
			w.curJob = nil
			w.maybePublish()
		}
	}()
	spins := 0
	idle := false
	for !w.rt.done.Load() {
		if t, j := w.takeWork(); t != nil {
			idle = false
			w.runSpark(t, j)
			spins = 0
			continue
		}
		if !idle {
			idle = true
			w.maybePublish()
		}
		spins++
		w.backoffWait(spins, true)
	}
}
