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

// wcounters is one worker's share of the run counters: plain int64
// fields written only by the owning goroutine, never atomically. The
// hot path (Par, steal, convert) therefore pays a plain register add
// instead of a LOCK-prefixed RMW per event. Mid-run observers never
// read these fields — the owner publishes immutable snapshots through
// worker.pub when sampling is on (see maybePublish) — and Run reads
// them directly only after the WaitGroup barrier, which orders the
// owner's writes before the reader's loads.
//
// The pads keep the counter block on its own cache lines so a worker's
// increments never false-share with a neighbouring worker's fields or
// with the deque pointers thieves traverse.
type wcounters struct {
	_               [64]byte
	sparksCreated   int64
	sparksDud       int64
	sparksConverted int64
	sparksFizzled   int64
	steals          int64
	stealAttempts   int64
	dupEntries      int64
	dupResults      int64
	blockedForces   int64
	forks           int64
	backoffSleeps   int64
	backoffNS       int64
	parks           int64
	parkedNS        int64
	_               [64]byte
}

// stats copies the counters into the exported form. Owner-only (or
// post-barrier) — see the type comment.
func (c *wcounters) stats() Stats {
	return Stats{
		SparksCreated:   c.sparksCreated,
		SparksDud:       c.sparksDud,
		SparksConverted: c.sparksConverted,
		SparksFizzled:   c.sparksFizzled,
		Steals:          c.steals,
		StealAttempts:   c.stealAttempts,
		DupEntries:      c.dupEntries,
		DupResults:      c.dupResults,
		BlockedForces:   c.blockedForces,
		Forks:           c.forks,
		BackoffSleeps:   c.backoffSleeps,
		BackoffNS:       c.backoffNS,
		Parks:           c.parks,
		ParkedNS:        c.parkedNS,
	}
}

// worker is one native capability: a goroutine with its own Chase–Lev
// spark pool and its own thunk arena. Worker 0 is the caller's
// goroutine running main; the rest run stealLoop.
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

	// pub carries the owner's latest counter snapshot for mid-run
	// samplers; nil until the owner first publishes. Written only via
	// maybePublish, which is gated on rt.sampled so unsampled runs never
	// pay for it.
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
	// claims is the stack of thunks this worker's goroutine has eagerly
	// claimed but not yet updated (LIFO: Force nests). Helping while
	// blocked is safe only when it is empty: an incomplete claim paused
	// beneath the current frame is a thunk whose completion does not
	// data-depend on our wait target, and a helped spark could
	// (transitively) force it — a cycle through the stack that no
	// amount of waiting resolves. With no open claims, everything this
	// stack owns is a data-ancestor of the wait target, so the thunk
	// DAG's acyclicity rules a deadlock out.
	//
	// Keeping the claimed thunks themselves (not just a count) is what
	// makes orphaned-claim recovery possible: if this goroutine dies,
	// its recovery handler poisons every still-open claim so blocked
	// peers unblock into the failure path instead of waiting forever on
	// a black hole nobody will ever update.
	claims []*graph.Thunk

	// blocked gauges how many of this worker's stack frames are inside
	// a blocked force right now; the deadline watchdog reads it (from
	// another goroutine, hence atomic) to report who was stuck where.
	blocked atomic.Int32

	// curJob is the resident job whose spark this worker is currently
	// converting (nil between sparks, in batch runs, and for untagged
	// deque sparks). Owner-only plain field: runSpark saves/restores it
	// around each conversion, so nested helping attributes correctly,
	// and the residentLoop recovery reads it to fail the right job.
	curJob *Job
}

// poisonClaims marks every thunk in claims as dead (claimant died with
// err), newest first, emitting ThunkPoison per transition. Shared by
// the worker and forked-thread recovery paths. Returns how many thunks
// actually transitioned to Poisoned, so callers can feed the runtime's
// poisoning counter.
func poisonClaims(claims []*graph.Thunk, err error, ev *eventlog.Buf) int64 {
	var n int64
	for i := len(claims) - 1; i >= 0; i-- {
		if claims[i].Poison(err) {
			n++
			if ev != nil {
				ev.Emit(eventlog.ThunkPoison)
			}
		}
	}
	return n
}

// poisonClaims poisons this worker's open claim stack — called only
// from the worker goroutine's own recovery handlers.
func (w *worker) poisonClaims(err error) {
	if n := poisonClaims(w.claims, err, w.ev); n > 0 {
		w.rt.poisoned.Add(n)
	}
	w.claims = w.claims[:0]
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

// maybePublish snapshots the owner's counters for mid-run samplers. A
// no-op (one predictable branch) unless the run was configured with a
// Sampler; called at coarse points — after each converted spark, at
// idle transitions, while blocked — so a sampler's view lags the owner
// by at most one spark execution.
func (w *worker) maybePublish() {
	if !w.rt.sampled {
		return
	}
	s := w.ctr.stats()
	w.pub.Store(&s)
	chunks, thunks := w.arena.Stats()
	w.pubArenaChunks.Store(chunks)
	w.pubArenaThunks.Store(thunks)
}

// Ctx is the execution context the native runtime hands to program
// bodies and thunk computations. It implements graph.Context (the
// forcing protocol), exec.Forker (the runtime-agnostic program
// interface) and exec.ThunkAllocator (arena-backed thunk allocation).
// A Ctx with a nil worker belongs to a forked goroutine, which owns no
// deque and no arena: its sparks go to the shared injection queue, its
// thunks to the global heap, its blocked forces spin without helping,
// and its counters accumulate atomically in the runtime's extern set.
type Ctx struct {
	rt *rt
	w  *worker
	// claims is the forked-thread claim stack (nil-worker contexts
	// only; worker contexts keep theirs on the worker). It exists for
	// the same orphaned-claim recovery as worker.claims.
	claims []*graph.Thunk
	// job is the resident job this context belongs to (nil in batch
	// runs). Job contexts route their counters to the job's exclusive
	// set, tag their sparks in the injection queue, and poll the job's
	// failure latch — so one job's deadline or fault cannot unwind its
	// pool neighbours.
	job *Job
	// ev is the job main thread's private event ring (nil elsewhere;
	// workers carry theirs on the worker). Single-writer: only the one
	// goroutine running the job's main function holds a Ctx with ev set.
	ev *eventlog.Buf
}

var (
	_ graph.Context       = (*Ctx)(nil)
	_ exec.Forker         = (*Ctx)(nil)
	_ exec.ThunkAllocator = (*Ctx)(nil)
)

// events returns this context's event ring, or nil if the context
// belongs to a forked thread or the eventlog is disabled.
func (c *Ctx) events() *eventlog.Buf {
	if c.w != nil {
		return c.w.ev
	}
	return c.ev
}

// faults returns the injector governing this context: the job's own
// budget when the context belongs to a resident job, else the
// runtime-wide plan.
func (c *Ctx) faults() *faults.Injector {
	if c.job != nil && c.job.faults != nil {
		return c.job.faults
	}
	return c.rt.cfg.Faults
}

// jobOf returns the resident job the calling goroutine is currently
// working for: the converting worker's current job, or the context's
// own (job main threads and their forks). Nil in batch runs.
func (c *Ctx) jobOf() *Job {
	if c.w != nil {
		return c.w.curJob
	}
	return c.job
}

// jctr returns the job counter set a nil-worker context should route
// to, or nil when the context belongs to a batch run's forked thread.
func (c *Ctx) jctr() *counters {
	if c.job != nil {
		return &c.job.ctr
	}
	return nil
}

// Burn is a no-op: under the native runtime, time is consumed by
// actually computing.
func (c *Ctx) Burn(ns int64) {}

// Alloc is a no-op: Go's allocator and GC are real.
func (c *Ctx) Alloc(bytes int64) {}

// NewThunkAdapted allocates a thunk computing adapt(ctx, payload) from
// the running worker's arena — the exec.ThunkAllocator hook strategies
// and workloads create their sparks through. Forked threads own no
// arena and fall back to a plain heap thunk.
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
			w.ctr.sparksDud++
			return
		}
		w.ctr.sparksCreated++
		w.pool.PushBottom(t)
		// Dekker handshake with the park lot: the seq-cst push above
		// (the deque's bottom store) is ordered before this load, and
		// the parker's nparked increment before its deque re-check —
		// one side always sees the other. With no one parked (every
		// run under the default policy) this is a single atomic load.
		if w.rt.nparked.Load() != 0 {
			w.rt.wake()
		}
		if w.ev != nil {
			w.ev.Emit(eventlog.SparkPush)
		}
		return
	}
	ctr := c.jctr()
	if ctr == nil {
		ctr = &c.rt.extern
	}
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

// Fork starts body on a fresh goroutine (a real GpH thread). Under a
// resident job the new thread inherits the job: its counters, faults
// and failure latch stay the job's.
func (c *Ctx) Fork(name string, body func(exec.Ctx)) {
	if c.w != nil {
		c.w.ctr.forks++
	} else if ctr := c.jctr(); ctr != nil {
		ctr.forks.Add(1)
	} else {
		c.rt.extern.forks.Add(1)
	}
	if ev := c.events(); ev != nil {
		ev.Emit(eventlog.Fork)
	}
	c.rt.fork(name, body, c.jobOf())
}

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
		c.w.ctr.dupEntries++
	} else if ctr := c.jctr(); ctr != nil {
		ctr.dupEntries.Add(1)
	} else {
		c.rt.extern.dupEntries.Add(1)
	}
	if ev := c.events(); ev != nil {
		ev.Emit(eventlog.ThunkDupEntry)
	}
}

// NoteClaimed records an eager claim opened on this goroutine's stack.
func (c *Ctx) NoteClaimed(t *graph.Thunk) {
	if c.w != nil {
		c.w.claims = append(c.w.claims, t)
		if c.w.ev != nil {
			c.w.ev.Emit(eventlog.ThunkClaim)
		}
		return
	}
	c.claims = append(c.claims, t)
}

// NoteReleased records that the claim's evaluation completed. Claims
// release in LIFO order (Force nests), so this pops the stack top.
func (c *Ctx) NoteReleased(t *graph.Thunk) {
	if c.w != nil {
		if n := len(c.w.claims); n > 0 {
			c.w.claims[n-1] = nil
			c.w.claims = c.w.claims[:n-1]
		}
		if c.w.ev != nil {
			c.w.ev.Emit(eventlog.ThunkRelease)
		}
		return
	}
	if n := len(c.claims); n > 0 {
		c.claims[n-1] = nil
		c.claims = c.claims[:n-1]
	}
}

// NoteDuplicateResult counts a computed-then-discarded duplicate value.
func (c *Ctx) NoteDuplicateResult(t *graph.Thunk) {
	if c.w != nil {
		c.w.ctr.dupResults++
	} else if ctr := c.jctr(); ctr != nil {
		ctr.dupResults.Add(1)
	} else {
		c.rt.extern.dupResults.Add(1)
	}
}

// BlockOnThunk waits for t to become Evaluated. A worker with no open
// claim leapfrogs: it keeps taking and running other sparks, which is
// both deadlock-free (the DAG is acyclic and the evaluator of t runs
// preemptively on another goroutine) and productive. Helping fires only
// with an empty claim stack, though — a spark helped under an open claim
// could depend on it — so a nested force (every APSP force, inside its
// row thunk's claim) polls t on the backoff ladder instead.
func (c *Ctx) BlockOnThunk(t *graph.Thunk) {
	if c.w != nil {
		c.w.ctr.blockedForces++
		c.w.blocked.Add(1)
		defer c.w.blocked.Add(-1)
		c.w.maybePublish()
	} else {
		if ctr := c.jctr(); ctr != nil {
			ctr.blockedForces.Add(1)
		} else {
			c.rt.extern.blockedForces.Add(1)
		}
		c.rt.externBlocked.Add(1)
		defer c.rt.externBlocked.Add(-1)
		if j := c.job; j != nil {
			j.blocked.Add(1)
			defer j.blocked.Add(-1)
		}
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
		if c.rt.failed.Load() {
			panic(errAborted)
		}
		// A failed resident job must unwind its own waiters (its main
		// thread, its forks, and workers converting its sparks) without
		// touching the rest of the pool.
		if j := c.jobOf(); j != nil && j.failed.Load() {
			panic(errJobAborted)
		}
		if c.w != nil && len(c.w.claims) == 0 && c.w.helpDepth < maxHelpDepth {
			if s, sj := c.w.takeWork(); s != nil {
				c.w.helpDepth++
				c.w.helpSpark(s, sj)
				c.w.helpDepth--
				spins = 0
				continue
			}
		}
		spins++
		if c.w != nil {
			// mayPark=false: the wake source here is the thunk's
			// completion, which does not signal the park lot.
			c.w.backoffWait(spins, false)
		} else {
			idleWait(spins)
		}
	}
	if ev != nil {
		ev.Emit(eventlog.BlockEnd)
	}
	if jev != nil {
		jev.Emit(eventlog.BlockEnd)
	}
}

// idleWait backs off an idle loop with the fixed legacy schedule:
// yield for the first 64 rounds, then sleep from 10µs, doubling up to
// a 1.28ms cap.
// Oversubscribed machines (more workers than cores, or a race-detector
// build) would otherwise burn the cores the productive workers need.
// Used by waits that have no worker identity (nil-worker blocked
// forces, runJob's active-wait) — worker loops go through backoffWait,
// which reads the pool's configured policy and counts its sleeps.
func idleWait(spins int) {
	if spins < 64 {
		runtime.Gosched()
		return
	}
	d := time.Duration(10<<uint(min(spins-64, 7))) * time.Microsecond
	time.Sleep(d)
}

// backoffWait advances this worker's idle ladder at iteration `spins`
// under the pool's policy: yield, a counted sleep, or — when the
// policy's parking threshold is reached and the caller's loop allows
// it — a park on the pool condvar. mayPark is false inside a blocked
// force: thunk completion does not signal the park lot, so parking
// there could sleep through the only event being waited for; those
// waits ride the sleep ladder to its cap instead.
func (w *worker) backoffWait(spins int, mayPark bool) {
	if mayPark {
		if _, park := w.rt.bo.Plan(spins); park {
			w.park()
			return
		}
	}
	d := w.rt.bo.Sleep(spins)
	if d == 0 {
		runtime.Gosched()
		return
	}
	t0 := time.Now()
	time.Sleep(d)
	w.ctr.backoffSleeps++
	w.ctr.backoffNS += time.Since(t0).Nanoseconds()
}

// park blocks this worker on the pool condvar until a producer pushes
// work (Par, pushInject), the run completes, or it fails — replacing
// the capped sleep loop a dry pool otherwise burns. The lost-wakeup
// handshake is described at the rt park-lot fields: the nparked
// increment is sequentially consistent and precedes the final
// work re-check, mirroring the producers' publish-then-load order, so
// one side always sees the other; parkGen versions the wait against
// wakes that land between the re-check and the Wait.
func (w *worker) park() {
	r := w.rt
	r.parkMu.Lock()
	r.nparked.Add(1)
	if r.done.Load() || r.failed.Load() || r.haveWork() {
		r.nparked.Add(-1)
		r.parkMu.Unlock()
		return
	}
	gen := r.parkGen
	w.ctr.parks++
	w.maybePublish()
	t0 := time.Now()
	for r.parkGen == gen && !r.done.Load() && !r.failed.Load() {
		r.parkCond.Wait()
	}
	r.nparked.Add(-1)
	r.parkMu.Unlock()
	w.ctr.parkedNS += time.Since(t0).Nanoseconds()
}

// takeWork returns the next spark to run — own pool first (LIFO, cache
// warm), then a steal sweep over the other workers, then the injection
// queue fed by forked threads and resident jobs — along with the job it
// belongs to (nil for deque sparks and batch runs).
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
		w.ctr.stealAttempts++
		if w.ev != nil {
			w.ev.EmitArg(eventlog.StealAttempt, int32(v.id))
		}
		if t, ok := v.pool.Steal(); ok {
			w.ctr.steals++
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
// reducer turns into the paper's green band. j is the resident job the
// spark was injected by (nil for deque sparks and batch runs); it is
// held in w.curJob across the force — restored on the normal path,
// deliberately left in place on panic so the recovery handler knows
// which job to fail.
func (w *worker) runSpark(t *graph.Thunk, j *Job) {
	if j != nil && j.failed.Load() {
		// The job already failed (deadline, fault): drop its
		// speculative leftovers instead of burning pool time on them.
		j.active.Add(-1)
		return
	}
	// jb is the job's worker-scoped trace ring (nil for untraced jobs,
	// batch runs and untagged sparks): the cross-worker view of one
	// request. Safe to write until this worker's active decrement —
	// runJob drains only after active reaches zero.
	jb := j.workerBuf(w.id)
	if t.IsEvaluated() {
		w.ctr.sparksFizzled++
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
	w.ctr.sparksConverted++
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
		// Normal completion; the panic path's decrement lives at the
		// containing recovery (stealPass/helpSpark), after the failure
		// has been attributed, so a job can't report success while a
		// worker-side failure is still in flight.
		j.active.Add(-1)
	}
	w.maybePublish()
}

// helpSpark runs a spark taken while blocked inside a force. In batch
// mode it is runSpark verbatim (a panic propagates and fails the run,
// as before). In resident mode the helped spark may belong to a
// different job than the one we are blocked for, so its panic must not
// unwind our force: it is contained here — claims opened by the helped
// spark poisoned (the help precondition is an empty claim stack, so
// everything open belongs to it), its job failed — and the blocked
// force resumes waiting.
func (w *worker) helpSpark(t *graph.Thunk, j *Job) {
	if !w.rt.resident {
		w.runSpark(t, j)
		return
	}
	entry := w.curJob
	defer func() {
		if p := recover(); p != nil {
			err := w.sparkPanicErr(p)
			w.poisonClaims(err)
			if failed := w.curJob; failed != nil {
				if p != errAborted {
					failed.fail(err)
				}
				failed.active.Add(-1)
			}
			w.curJob = entry
		}
	}()
	w.runSpark(t, j)
}

// sparkPanicErr maps a spark panic value to the error that should
// poison the dead spark's claims: the pool/job failure for the abort
// sentinels, a wrapped panic error otherwise.
func (w *worker) sparkPanicErr(p any) error {
	switch p {
	case errAborted:
		return w.rt.err // set before rt.failed, so visible here
	case errJobAborted:
		if j := w.curJob; j != nil {
			return j.takeErr()
		}
		return errJobAborted
	default:
		return panicErr(fmt.Sprintf("native: worker %d: spark panicked", w.id), p)
	}
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

// stealLoop is the body of workers 1..N-1: take work until the main
// thread finishes. A panic inside a spark aborts the whole run with an
// error rather than crashing the process. Idle brackets wrap maximal
// found-nothing stretches (not individual back-off sleeps), so the
// eventlog stays proportional to state changes, not to spin iterations.
func (w *worker) stealLoop() {
	defer w.rt.stealers.Done()
	defer func() {
		if p := recover(); p != nil {
			var err error
			if p == errAborted {
				err = w.rt.err // set before rt.failed, so visible here
			} else {
				err = panicErr(fmt.Sprintf("native: worker %d: spark panicked", w.id), p)
			}
			// Orphaned-claim recovery: poison every thunk this dead
			// worker still holds a claim on, so a peer blocked on one of
			// them unblocks into the failure path (Force raises
			// *graph.PoisonError) instead of waiting forever.
			w.poisonClaims(err)
			if p != errAborted {
				w.rt.fail(err)
			}
		}
	}()
	// Final publication (runs on every exit path, including a spark
	// panic): without it, counter changes since the last coarse publish
	// point — e.g. steal attempts from the closing sweep — would never
	// reach a sampler that reads after the run.
	defer w.maybePublish()
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
		w.backoffWait(spins, true)
	}
	if idle && w.ev != nil {
		w.ev.Emit(eventlog.IdleEnd)
	}
}
