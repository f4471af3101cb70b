package native

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"parhask/internal/deque"
	"parhask/internal/eventlog"
	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/graph"
)

// wcounters is one worker's share of the run counters: plain fields
// written only by the owning goroutine, never atomically. The hot path
// (Par, steal, convert) therefore pays a plain register add instead of
// a LOCK-prefixed RMW per event. Mid-run observers never read these
// fields — in a resident pool the owner publishes immutable snapshots
// through worker.pub (see maybePublish) — and Run reads them directly
// only after the WaitGroup barrier, which orders the owner's writes
// before the reader's loads. SparksLeftover stays zero: a pool's
// leftovers are read off the deque.
//
// The pads keep the counter block on its own cache lines so a worker's
// increments never false-share with a neighbouring worker's fields or
// with the deque pointers thieves traverse.
type wcounters struct {
	_ [64]byte
	Stats
	_ [64]byte
}

// worker is one native capability: a goroutine with its own Chase–Lev
// spark pool and its own thunk arena. In a batch Run worker 0 is the
// caller's goroutine running main; every other worker runs stealPass.
type worker struct {
	rt   *rt
	id   int
	pool *deque.Deque[graph.Thunk]
	ctx  Ctx

	// arena is this worker's thunk allocation region (§IV-A.1 analogue):
	// NewThunk on this worker's context hands out Thunk slots from
	// owner-local chunks instead of the global heap. Owner-only.
	arena *graph.Arena

	// ctr is this worker's share of the run counters (owner-written
	// plain adds; see wcounters for the publication discipline).
	ctr wcounters

	// pub carries the owner's latest counter snapshot for Pool.Snapshot;
	// nil until the owner first publishes. Written only via
	// maybePublish, which a batch run skips.
	pub atomic.Pointer[Stats]

	// pubArenaChunks/pubArenaThunks publish the arena's footprint for
	// live observers (the /metrics scrape): graph.Arena's own fields
	// are owner-written plain ints, so a concurrent read would race.
	// Stored in maybePublish alongside pub.
	pubArenaChunks atomic.Int64
	pubArenaThunks atomic.Int64

	// ev is this worker's wall-clock event ring; nil when the eventlog
	// is disabled, which keeps every hook a plain nil check.
	ev *eventlog.Buf

	// helpDepth bounds recursive spark-running from inside a blocked
	// force, so a pathological spark chain cannot overflow the stack.
	helpDepth int

	// blocked gauges how many of this worker's stack frames are inside
	// a blocked force right now; the deadline watchdog reads it (from
	// another goroutine, hence atomic) to report who was stuck where.
	blocked atomic.Int32

	// curJob is the job whose injected spark this worker is currently
	// converting (nil between sparks and for untagged deque sparks).
	// Owner-only plain field: runSpark saves/restores it around each
	// conversion, so nested helping attributes correctly, and the
	// recovery in stealPass and helpSpark reads it to fail the right job.
	curJob *Job
}

// job returns the job this worker's current work belongs to: the
// converting spark's, else the owner of untagged work (a batch run's
// job; nil in a resident pool).
func (w *worker) job() *Job {
	if w.curJob != nil {
		return w.curJob
	}
	return w.rt.own
}

// maxHelpDepth caps how many sparks a blocked force may run nested
// inside one another before falling back to plain spinning.
const maxHelpDepth = 64

func newWorker(r *rt, id int) *worker {
	w := &worker{rt: r, id: id, pool: deque.New[graph.Thunk](),
		arena: graph.NewArena(r.cfg.ArenaChunk)}
	w.ctx = Ctx{rt: r, w: w}
	return w
}

// maybePublish snapshots the owner's counters for Pool.Snapshot. A
// no-op (one predictable branch) in a batch run, which nothing samples
// mid-run; called at coarse points — after each converted spark, at
// idle transitions, while blocked — so a snapshot lags the owner by at
// most one spark execution.
func (w *worker) maybePublish() {
	if w.rt.own != nil {
		return
	}
	s := w.ctr.Stats
	w.pub.Store(&s)
	chunks, thunks := w.arena.Stats()
	w.pubArenaChunks.Store(chunks)
	w.pubArenaThunks.Store(thunks)
}

// Ctx is the execution context the native runtime hands to program
// bodies and thunk computations. It implements graph.Context (the
// forcing protocol), exec.Ctx (the runtime-agnostic program
// interface) and exec.ThunkAllocator (arena-backed thunk allocation).
// A Ctx with a nil worker belongs to a resident job's main thread,
// which owns no deque and no arena: its sparks go to the shared
// injection queue, its thunks to the global heap, its blocked forces
// spin without helping, and its counters accumulate atomically in its
// job's set.
type Ctx struct {
	rt *rt
	w  *worker
	// claims is the stack of thunks this context's goroutine has
	// eagerly claimed but not yet updated. Helping while blocked is
	// safe only when it is empty: an incomplete claim paused beneath
	// the current frame is a thunk whose completion does not
	// data-depend on our wait target, and a helped spark could
	// (transitively) force it — a cycle through the stack that no
	// amount of waiting resolves. With no open claims, everything this
	// stack owns is a data-ancestor of the wait target, so the thunk
	// DAG's acyclicity rules a deadlock out. If the goroutine dies, try
	// poisons what is still open.
	claims graph.Claims
	// job is the job whose main thread a nil-worker context runs (nil
	// on a worker's context). Job contexts route their counters to the
	// job's exclusive set, tag their sparks in the injection queue, and
	// poll the job's failure latch — so one job's deadline or fault
	// cannot unwind its pool neighbours.
	job *Job
	// ev is the job main thread's private event ring (nil elsewhere;
	// workers carry theirs on the worker). Single-writer: only the one
	// goroutine running the job's main function holds a Ctx with ev set.
	ev *eventlog.Buf
}

var (
	_ graph.Context       = (*Ctx)(nil)
	_ exec.Ctx            = (*Ctx)(nil)
	_ exec.ThunkAllocator = (*Ctx)(nil)
)

// events returns this context's event ring, or nil if the eventlog is
// disabled.
func (c *Ctx) events() *eventlog.Buf {
	if c.w != nil {
		return c.w.ev
	}
	return c.ev
}

// faults returns the injector governing this context: the job's own
// budget when its job has one, else the runtime-wide plan.
func (c *Ctx) faults() *faults.Injector {
	if c.job != nil && c.job.faults != nil {
		return c.job.faults
	}
	return c.rt.cfg.Faults
}

// jobOf returns the job the calling goroutine is currently working
// for: the worker's (see worker.job), or the context's own (a resident
// main thread).
func (c *Ctx) jobOf() *Job {
	if c.w != nil {
		return c.w.job()
	}
	return c.job
}

// Burn is a no-op: under the native runtime, time is consumed by
// actually computing.
func (c *Ctx) Burn(ns int64) {}

// Alloc is a no-op: Go's allocator and GC are real.
func (c *Ctx) Alloc(bytes int64) {}

// NewThunkAdapted allocates a thunk computing adapt(ctx, payload) from
// the running worker's arena — the exec.ThunkAllocator hook strategies
// and workloads create their sparks through. A resident job's main
// thread owns no arena and falls back to a plain heap thunk.
func (c *Ctx) NewThunkAdapted(adapt graph.AdaptFn, payload any) *graph.Thunk {
	if c.w != nil {
		return c.w.arena.NewThunkAdapted(adapt, payload)
	}
	return graph.NewThunkAdapted(adapt, payload)
}

// Par sparks t: the thunk becomes available for any worker to evaluate.
// Already-evaluated (or nil) closures are discarded as duds, as in GHC.
// On the worker path this is the allocation-free hot path: a plain
// counter add and an owner-side deque push.
func (c *Ctx) Par(t *graph.Thunk) {
	if w := c.w; w != nil {
		if t == nil || t.IsEvaluated() {
			w.ctr.SparksDud++
			return
		}
		w.ctr.SparksCreated++
		w.pool.PushBottom(t)
		if w.ev != nil {
			w.ev.Emit(eventlog.SparkPush)
		}
		return
	}
	ctr := &c.job.ctr
	if t == nil || t.IsEvaluated() {
		ctr.sparksDud.Add(1)
		return
	}
	ctr.sparksCreated.Add(1)
	if ev := c.ev; ev != nil {
		ev.Emit(eventlog.SparkPush)
	}
	c.rt.pushInject(t, c.job)
}

// Force evaluates t to weak head normal form on this worker.
func (c *Ctx) Force(t *graph.Thunk) graph.Value { return graph.Force(c, t) }

// ForceDeep evaluates v to normal form on this worker.
func (c *Ctx) ForceDeep(v graph.Value) graph.Value { return graph.ForceDeep(c, v) }

// EagerBlackholing reports the configured claim policy.
func (c *Ctx) EagerBlackholing() bool { return c.rt.cfg.EagerBlackholing }

// BlackholeWriteCost is zero: the native claim's cost is the real CAS.
func (c *Ctx) BlackholeWriteCost() int64 { return 0 }

// EnteredThunk is a no-op: the native lazy policy never marks on entry
// at all — that is precisely the unsynchronised baseline whose
// duplicate evaluation the eager CAS removes.
func (c *Ctx) EnteredThunk(t *graph.Thunk) {}

// LeftThunk is a no-op (no entry table to clean up).
func (c *Ctx) LeftThunk(t *graph.Thunk) {}

// WakeThunkWaiters is a no-op: blocked native forces poll the thunk's
// atomic state, so there is no waiter list to drain.
func (c *Ctx) WakeThunkWaiters(t *graph.Thunk) {}

// NoteDuplicateEntry counts a lazy-black-holing duplicate entry.
func (c *Ctx) NoteDuplicateEntry(t *graph.Thunk) {
	if c.w != nil {
		c.w.ctr.DupEntries++
	} else {
		c.job.ctr.dupEntries.Add(1)
	}
	if ev := c.events(); ev != nil {
		ev.Emit(eventlog.ThunkDupEntry)
	}
}

// NoteClaimed records an eager claim opened on this goroutine's stack.
func (c *Ctx) NoteClaimed(t *graph.Thunk) {
	c.claims.Push(t)
	if c.w != nil && c.w.ev != nil {
		c.w.ev.Emit(eventlog.ThunkClaim)
	}
}

// NoteReleased records that the claim's evaluation completed. Claims
// release in LIFO order (Force nests), so this pops the stack top.
func (c *Ctx) NoteReleased(t *graph.Thunk) {
	c.claims.Pop()
	if c.w != nil && c.w.ev != nil {
		c.w.ev.Emit(eventlog.ThunkRelease)
	}
}

// NoteDuplicateResult counts a computed-then-discarded duplicate value.
func (c *Ctx) NoteDuplicateResult(t *graph.Thunk) {
	if c.w != nil {
		c.w.ctr.DupResults++
	} else {
		c.job.ctr.dupResults.Add(1)
	}
}

// BlockOnThunk waits for t to become Evaluated. A worker with no open
// claim leapfrogs: it keeps taking and running other sparks, which is
// both deadlock-free (the DAG is acyclic and the evaluator of t runs
// preemptively on another goroutine) and productive. Helping fires only
// with an empty claim stack, though — a spark helped under an open claim
// could depend on it — so a nested force (every APSP force, inside its
// row thunk's claim) polls t on the idle ladder instead.
func (c *Ctx) BlockOnThunk(t *graph.Thunk) {
	if c.w != nil {
		c.w.ctr.BlockedForces++
		c.w.blocked.Add(1)
		defer c.w.blocked.Add(-1)
		c.w.maybePublish()
	} else {
		c.job.ctr.blockedForces.Add(1)
		c.job.blocked.Add(1)
		defer c.job.blocked.Add(-1)
	}
	ev := c.events()
	// jev mirrors the bracket into the converting job's worker-scoped
	// trace ring. Captured once: helping below may temporarily switch
	// w.curJob, but the block belongs to the job whose spark opened it.
	var jev *eventlog.Buf
	if c.w != nil {
		jev = c.w.curJob.workerBuf(c.w.id)
	}
	if ev != nil {
		ev.Emit(eventlog.BlockBegin)
	}
	if jev != nil {
		jev.Emit(eventlog.BlockBegin)
	}
	spins := 0
	for {
		if s := t.State(); s == graph.Evaluated || s == graph.Poisoned {
			// Poisoned: the claimant died. Return and let Force's
			// dispatch loop raise the *graph.PoisonError.
			break
		}
		// A failed job must unwind its own waiters (its main thread and
		// workers converting its sparks) without touching the rest of
		// the pool.
		if j := c.jobOf(); j != nil {
			j.latch.Check()
		}
		if c.w != nil && len(c.claims) == 0 && c.w.helpDepth < maxHelpDepth {
			if s, sj := c.w.takeWork(); s != nil {
				c.w.helpDepth++
				c.w.helpSpark(s, sj)
				c.w.helpDepth--
				spins = 0
				continue
			}
		}
		spins++
		idleWait(c.w, spins)
	}
	if ev != nil {
		ev.Emit(eventlog.BlockEnd)
	}
	if jev != nil {
		jev.Emit(eventlog.BlockEnd)
	}
}

// The idle ladder: an idle loop yields the processor through round
// idleSpins, then sleeps idleSleepMin·2^k, doubling to a cap of
// idleSleepMin<<idleDoublings (1.28ms). Sleeping keeps oversubscribed
// machines (more workers than cores, or a race-detector build) from
// burning the cores the productive workers need.
const (
	idleSpins     = 64
	idleSleepMin  = 10 * time.Microsecond
	idleDoublings = 7
)

// idleSleep is how long round spins of an idle loop sleeps: 0 (yield)
// through round idleSpins, then the doubling ladder held at its cap.
func idleSleep(spins int) time.Duration {
	if spins <= idleSpins {
		return 0
	}
	return idleSleepMin << min(spins-idleSpins-1, idleDoublings)
}

// idleWait takes round spins of an idle loop on the ladder. A worker's
// loops (stealPass, its blocked forces) count their sleeps into its
// BackoffSleeps/BackoffNS; the waits with no worker (w == nil: a
// resident job's main thread blocked in a force, finish's
// active-wait) stay uncounted.
func idleWait(w *worker, spins int) {
	d := idleSleep(spins)
	if d == 0 {
		runtime.Gosched()
		return
	}
	t0 := time.Now()
	time.Sleep(d)
	if w != nil {
		w.ctr.BackoffSleeps++
		w.ctr.BackoffNS += time.Since(t0).Nanoseconds()
	}
}

// takeWork returns the next spark to run — own pool first (LIFO, cache
// warm), then a steal sweep over the other workers, then the injection
// queue fed by resident jobs' main threads — along with the job it
// was injected by (nil for deque sparks).
func (w *worker) takeWork() (*graph.Thunk, *Job) {
	if t, ok := w.pool.PopBottom(); ok {
		return t, nil
	}
	ws := w.rt.workers
	n := len(ws)
	for off := 1; off < n; off++ {
		v := ws[(w.id+off)%n]
		if v.pool.Empty() {
			continue
		}
		w.ctr.StealAttempts++
		if w.ev != nil {
			w.ev.EmitArg(eventlog.StealAttempt, int32(v.id))
		}
		if t, ok := v.pool.Steal(); ok {
			w.ctr.Steals++
			if w.ev != nil {
				w.ev.EmitArg(eventlog.StealSuccess, int32(v.id))
			}
			return t, nil
		}
	}
	return w.rt.popInject()
}

// runSpark converts a spark: forces it unless it is already evaluated
// (fizzled). The Run bracket around the force is what the timeline
// reducer turns into the paper's green band. j is the job the spark was
// injected by (nil for deque sparks); it is held in w.curJob across the
// force — restored on the normal path, deliberately left in place on
// panic so the recovery handler knows which job to fail.
func (w *worker) runSpark(t *graph.Thunk, j *Job) {
	if j != nil && j.latch.Failed() {
		// The job already failed (deadline, fault): drop its
		// speculative leftovers instead of burning pool time on them.
		j.active.Add(-1)
		return
	}
	// jb is the job's worker-scoped trace ring (nil for untraced jobs
	// and untagged sparks): the cross-worker view of one request. Safe
	// to write until this worker's active decrement — finish drains only
	// after active reaches zero.
	jb := j.workerBuf(w.id)
	if t.IsEvaluated() {
		w.ctr.SparksFizzled++
		if w.ev != nil {
			w.ev.Emit(eventlog.SparkFizzle)
		}
		if jb != nil {
			jb.Emit(eventlog.SparkFizzle)
		}
		if j != nil {
			j.active.Add(-1)
		}
		return
	}
	w.ctr.SparksConverted++
	prev := w.curJob
	w.curJob = j
	inj := w.rt.cfg.Faults
	if j != nil && j.faults != nil {
		inj = j.faults
	}
	if inj != nil {
		// The whole fault plane costs exactly this one nil check when
		// disabled; armed-but-empty is priced by the benchmark's
		// faults.armed_overhead_x row.
		w.injectSparkFaults(inj)
	}
	if w.ev != nil {
		w.ev.Emit(eventlog.SparkConvert)
		w.ev.Emit(eventlog.RunBegin)
	}
	if jb != nil {
		jb.Emit(eventlog.SparkConvert)
		jb.Emit(eventlog.RunBegin)
	}
	graph.Force(&w.ctx, t)
	if w.ev != nil {
		w.ev.Emit(eventlog.RunEnd)
	}
	if jb != nil {
		jb.Emit(eventlog.RunEnd)
	}
	w.curJob = prev
	if j != nil {
		// Normal completion; the panic path's decrement is letGo's,
		// after try has failed the job, so a job can't report success
		// while a worker-side failure is still in flight.
		j.active.Add(-1)
	}
	w.maybePublish()
}

// helpSpark runs a spark taken while blocked inside a force. The
// helped spark may belong to a different job than the one we are
// blocked for, so its panic must not unwind our force: it is contained
// here (the help precondition is an empty claim stack, so every claim
// try poisons is the helped spark's), and the blocked force resumes
// waiting — or unwinds, if the failed job is its own.
func (w *worker) helpSpark(t *graph.Thunk, j *Job) {
	entry := w.curJob
	if w.ctx.try(w.sparkPanicked, func() { w.runSpark(t, j) }) != nil {
		w.letGo(entry)
	}
}

// sparkPanicked names a worker's failed spark in its error.
func (w *worker) sparkPanicked() string {
	return fmt.Sprintf("native: worker %d: spark panicked", w.id)
}

// letGo ends a spark that try reported failed — try has already failed
// the job the spark belonged to (none for an untagged spark in a
// resident pool, whose victims learn of it through the poisoned claims
// alone) — by releasing the worker's hold on a tagged spark's job, and
// goes back to working for entry.
func (w *worker) letGo(entry *Job) {
	if w.curJob != nil {
		w.curJob.active.Add(-1)
	}
	w.curJob = entry
}

// try runs body as a thread working for c's job — a job's main or a
// worker's sparks — and returns the failure that ended it,
// or nil. It is the runtime's one recovery bracket: the panic becomes
// an error (the job's recorded failure when it is the latch's abort),
// the claims the dying stack still holds are poisoned so their forcers
// unwind instead of waiting on a black hole forever (this matters when
// a supervisor retries on the same heap graph), and the job is failed
// so every force waiting for it unwinds. what names the thread in the
// error; it runs only on failure.
func (c *Ctx) try(what func() string, body func()) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		// Read the job now, not before body: a failed spark leaves
		// curJob naming the job it was converting for.
		var l *faults.Latch
		if j := c.jobOf(); j != nil {
			l = &j.latch
		}
		err = l.Recovered(p, what())
		n := c.claims.Poison(err)
		c.rt.poisoned.Add(n)
		if c.w != nil && c.w.ev != nil {
			for range n {
				c.w.ev.Emit(eventlog.ThunkPoison)
			}
		}
		if l != nil {
			l.Fail(err)
		}
	}()
	body()
	return nil
}

// injectSparkFaults is the cold half of the spark injection hook: a
// stall sleep if the plan marks this worker slow, then an injected
// panic if the plan names this spark index. Only converted sparks
// advance the index (fizzles don't execute anything worth killing).
func (w *worker) injectSparkFaults(inj *faults.Injector) {
	if d := inj.StallDur(w.id); d > 0 {
		inj.NoteStall()
		if pm := w.rt.pm; pm != nil {
			pm.faultStalls.AddAt(w.id, 1)
		}
		if w.ev != nil {
			w.ev.Emit(eventlog.StallBegin)
		}
		time.Sleep(d)
		if w.ev != nil {
			w.ev.Emit(eventlog.StallEnd)
		}
	}
	if f := inj.SparkFault(); f != nil {
		if pm := w.rt.pm; pm != nil {
			pm.faultPanics.AddAt(w.id, 1)
		}
		if w.ev != nil {
			w.ev.EmitArg(eventlog.FaultPanic, int32(f.Index))
		}
		panic(f)
	}
}
