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

// Pool is the native work-stealing runtime: the workers, their deques
// and their thunk arenas are created once, and programs are submitted
// as jobs. A resident pool (NewPool) stays up across jobs: every worker
// is a goroutine running the same loop, and each job's main function
// runs on its own goroutine, feeding the workers through the injection
// queue. A batch Run is a pool that runs one job with the caller's
// goroutine as worker 0, then closes.
//
// Isolation: each job carries its own result cell, failure latch,
// deadline, fault budget, counter set and (optionally) eventlog scope.
// A spark panic, injected fault or deadline expiry fails only the job
// the work belonged to — the worker poisons the dead job's claims (so
// its waiters unwind through the ordinary poison protocol) and goes
// back to stealing. GC telemetry is deliberately pool-scoped: Go's
// collector is process-global, so per-job deltas would be fiction; GC
// reports what the collector did since the pool started, flagged
// Shared if any other pool's window overlapped (see internal/gcscope).
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
	// governs the job's root sparks (injection-queue entries) and
	// nothing else — neighbouring jobs see no injected failures.
	Faults *faults.Injector
	// EventLog gives the job a private event ring set: buffer 0 is fed
	// by the job's main thread (run/block brackets, spark pushes), and
	// buffer 1+w is worker w's job-scoped ring — each worker mirrors
	// the brackets of the sparks it converts *for this job* into it, so
	// the drained log is one request's cross-worker timeline. A batch
	// Run's per-worker rings (Config.EventLog) are a separate set.
	EventLog bool
	// TraceID, if non-zero, tags the job's event ring with a TraceMark
	// event carrying this id — the serve layer's handle for pulling one
	// request's timeline off a live server. Ignored unless EventLog.
	TraceID int32
}

// Job is one submission — a resident job, or a batch Run's one job: a
// program plus its isolation scope.
type Job struct {
	id int64

	// ctr is the job's exclusive counter set, written only by a
	// resident job's main thread (atomic: Pool.Snapshot reads it while
	// the job runs). Worker-side execution (conversions, steals) stays
	// in the per-worker stats — that split is what makes pool snapshots
	// monotone: nothing writes ctr after the job's main has returned.
	ctr counters

	// blocked gauges the job's nil-worker threads currently inside a
	// blocked force (deadline diagnostics).
	blocked atomic.Int64

	// active gauges workers currently converting this job's injected
	// sparks: incremented under injectMu at pop, decremented when the
	// conversion ends (normally in runSpark, on panic at the containing
	// recovery). finish waits for it to reach zero after purging the
	// queue, so a job's outcome is decided only after every worker has
	// let go of its work — a worker-side failure can't land after the
	// job reported success, and a retired job is untouchable.
	active atomic.Int64

	// latch records the job's first failure. Forces working for the
	// job poll it, so a failure needs no wakeup.
	latch faults.Latch

	deadline *time.Timer
	faults   *faults.Injector

	events *eventlog.Log
	ev     *eventlog.Buf

	start   time.Time
	done    chan struct{}
	result  *JobResult
	waitErr error
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Value is what the job's main function returned (nil on failure).
	Value graph.Value
	// WallNS is the job's latency, Submit to completion, in nanoseconds.
	WallNS int64
	// Stats is the job's exclusive counter set — the activity of its
	// main thread (sparks created, blocked forces). Execution-side
	// counters (conversions, steals) are pool-wide; read them from
	// Pool.Snapshot.
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
// (active > 0) — finish's active==0 wait is the barrier that makes the
// post-run drain safe.
func (j *Job) workerBuf(id int) *eventlog.Buf {
	if j == nil || j.events == nil {
		return nil
	}
	return j.events.Buf(1 + id)
}

// newPool builds a pool whose workers have not started yet, with its
// GOGC lease and GC window open.
func newPool(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{start: time.Now(), live: map[int64]*Job{}}
	if cfg.GCPercent != 0 {
		// The GOGC knob is process-global; the lease serialises
		// conflicting set/restore pairs so concurrent pools cannot
		// corrupt each other's targets (internal/gcscope).
		p.release = gcscope.LeaseFn(cfg.GCPercent)
	}
	p.rt = newRT(cfg)
	p.gogc = readGOGC()
	p.gcWin = gcscope.Begin()
	return p
}

// NewPool starts a resident pool: cfg.Workers worker goroutines, arenas
// warm, ready for Submit. Config fields are honoured as in Run, except
// that Config.EventLog and Config.Deadline are per-job in a pool (use
// JobConfig.EventLog and JobConfig.Deadline); Config.Faults governs the
// jobs without a JobConfig.Faults budget and untagged work.
// Config.GCPercent, if set, is leased for the pool's whole lifetime.
// Snapshot may be called at any time (serve's /stats, metrics
// collectors): a resident pool's workers publish coarse snapshots.
func NewPool(cfg Config) *Pool {
	p := newPool(cfg)
	if cfg.Metrics != nil {
		p.pm = newPoolMetrics(cfg.Metrics, p)
		p.rt.pm = p.pm
	}
	p.startWorkers(0)
	return p
}

// startWorkers launches worker goroutines from worker `from` on: 0 for
// a resident pool, 1 for a batch Run, whose caller is worker 0. Each
// runs stealPass until the pool stops; a pass ends early only on a
// spark panic, which try contains and charges to the spark's job, so
// one job's failure never costs the pool a worker.
func (p *Pool) startWorkers(from int) {
	r := p.rt
	for _, w := range r.workers[from:] {
		r.stealers.Add(1)
		go func() {
			defer r.stealers.Done()
			for !r.done.Load() {
				if w.ctx.try(w.sparkPanicked, w.stealPass) != nil {
					w.letGo(nil)
					w.maybePublish()
				}
			}
			// Final publication: without it, counter changes since the
			// last coarse publish point — e.g. steal attempts from the
			// closing sweep — would never reach a Snapshot taken after
			// Close.
			w.maybePublish()
		}()
	}
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
	j, err := p.admit(jc)
	if err != nil {
		return nil, err
	}
	p.arm(j, jc.Deadline)
	go p.runJob(j, main)
	return &JobHandle{job: j}, nil
}

// admit registers a new live job, unless the pool is draining or
// closed.
func (p *Pool) admit(jc JobConfig) (*Job, error) {
	p.jobsMu.Lock()
	defer p.jobsMu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if p.draining {
		return nil, ErrPoolDraining
	}
	p.jobSeq++
	j := &Job{id: p.jobSeq, faults: jc.Faults,
		start: time.Now(), done: make(chan struct{})}
	if jc.EventLog {
		j.events = eventlog.New(j.start, 1+len(p.rt.workers), eventlog.Config{})
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
	return j, nil
}

// arm bounds job j's wall-clock time by d (from admission), if d > 0:
// a job still in flight when it elapses fails with a structured
// *faults.DeadlockError.
func (p *Pool) arm(j *Job, d time.Duration) {
	if d <= 0 {
		return
	}
	j.deadline = time.AfterFunc(d, func() {
		if j.latch.Failed() {
			return
		}
		select {
		case <-j.done:
			return
		default:
		}
		j.latch.Fail(p.deadlockError(j))
	})
}

// deadlockError builds job j's structured deadline failure from the
// gauges that can be attributed to it: its own blocked nil-worker
// threads and, when j owns the pool's untagged work (a batch run), every
// blocked worker — worker 0 being its main thread. In a resident pool a
// worker blocked while converting the job's spark is not named: worker
// state is shared. The gauges are atomic but the run is live, so the
// report is a point-in-time sample.
func (p *Pool) deadlockError(j *Job) *faults.DeadlockError {
	de := &faults.DeadlockError{Backend: "native", Reason: "deadline", Elapsed: time.Since(j.start)}
	if j == p.rt.own {
		for _, w := range p.rt.workers {
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
	}
	if n := j.blocked.Load(); n > 0 {
		de.Blocked = append(de.Blocked, faults.BlockedThread{
			PE: -1, Thread: fmt.Sprintf("job-%d (%d blocked)", j.id, n),
			Reason: "thunk", Chan: -1, Peer: -1,
		})
	}
	return de
}

// runJob is a resident job's main-thread goroutine.
func (p *Pool) runJob(j *Job, main exec.Program) {
	if p.pm != nil {
		// Scheduling latency: Submit to the job goroutine actually
		// starting (goroutine wakeup + admission bookkeeping).
		p.pm.schedWait.Observe(time.Since(j.start).Nanoseconds())
	}
	c := Ctx{rt: p.rt, job: j, ev: j.ev}
	value, err := p.runMain(j, &c, main)
	p.finish(j, value, err)
}

// runMain runs main as job j's main thread on context c — a fresh
// context for a resident job, worker 0's for a batch run — and returns
// its value or its failure (see Ctx.try).
func (p *Pool) runMain(j *Job, c *Ctx, main exec.Program) (value graph.Value, err error) {
	err = c.try(func() string { return fmt.Sprintf("native: job %d main panicked", j.id) }, func() {
		ev := c.events()
		if ev != nil {
			ev.Emit(eventlog.RunBegin)
		}
		value = main(c)
		if ev != nil {
			ev.Emit(eventlog.RunEnd)
		}
	})
	return value, err
}

// finish ends job j once its main thread has returned value or err:
// it settles the job's sparks, decides the outcome and retires the job.
func (p *Pool) finish(j *Job, value graph.Value, err error) {
	defer p.jobs.Done()
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
		idleWait(nil, spins)
	}
	if j.deadline != nil {
		j.deadline.Stop()
	}
	if err == nil {
		err = j.latch.Err() // a worker failed the job
	}
	res := &JobResult{WallNS: time.Since(j.start).Nanoseconds(), Stats: j.ctr.load()}
	res.Stats.SparksLeftover = leftover
	if j.events != nil {
		j.events.Close(res.WallNS)
		res.Events = j.events
	}
	if err == nil {
		res.Value = value
	}
	j.result = res
	j.waitErr = err
	p.retire(j, err)
	close(j.done)
}

// retire folds the job's final counters into the pool's retired total
// and removes it from the live table — one critical section, so a
// Snapshot sees the counters exactly once (live or retired, never
// neither). No thread writes j.ctr after its main returned, so the fold
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
// snapshot, the injection queue's leftovers, all retired jobs, and every live
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
// other measurement window (another pool's) overlapped the pool's.
func (p *Pool) GC() GCStats {
	p.gcMu.Lock()
	d := p.gcWin.Sample()
	p.gcMu.Unlock()
	return p.gcStats(d)
}

// gcStats labels a window delta with the GOGC the pool runs under.
func (p *Pool) gcStats(d gcscope.Delta) GCStats {
	return GCStats{GOGC: p.gogc, Delta: d}
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
	p.shutdown()
	p.jobsMu.Lock()
	p.closed = true
	p.jobsMu.Unlock()
}

// stop makes every worker goroutine exit and waits for them.
// Idempotent.
func (p *Pool) stop() {
	p.rt.done.Store(true)
	p.rt.stealers.Wait()
}

// shutdown stops the workers, closes the GC window and releases the
// GOGC lease, returning the window's delta.
func (p *Pool) shutdown() gcscope.Delta {
	p.stop()
	p.gcMu.Lock()
	d := p.gcWin.End()
	p.gcMu.Unlock()
	if p.release != nil {
		p.release()
	}
	return d
}

// stealPass is the worker loop: take a spark and run it, or back off,
// until the pool stops. Idle brackets wrap maximal found-nothing
// stretches (not individual back-off sleeps), so the eventlog stays
// proportional to state changes, not to spin iterations. A spark panic
// ends the pass (see startWorkers).
func (w *worker) stealPass() {
	spins := 0
	idle := false
	for !w.rt.done.Load() {
		if t, j := w.takeWork(); t != nil {
			if idle {
				idle = false
				if w.ev != nil {
					w.ev.Emit(eventlog.IdleEnd)
				}
			}
			w.runSpark(t, j)
			spins = 0
			continue
		}
		if !idle {
			idle = true
			if w.ev != nil {
				w.ev.Emit(eventlog.IdleBegin)
			}
			w.maybePublish()
		}
		spins++
		idleWait(w, spins)
	}
	if idle && w.ev != nil {
		w.ev.Emit(eventlog.IdleEnd)
	}
}
