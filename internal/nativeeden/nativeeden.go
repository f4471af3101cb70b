// Package nativeeden is the real-concurrency counterpart of the
// simulated Eden runtime (internal/eden): N processing elements on real
// goroutines, each a self-contained sequential runtime with its own
// thunk arena and owner-written counters, connected by typed channels
// with Eden's normal-form-before-send semantics. It executes the same
// backend-neutral programs (pe.Program — the skeletons and the
// workloads' Eden programs) and measures wall-clock time, completing
// the paper's GpH-vs-Eden head-to-head on real hardware.
//
// Architecture:
//
//   - One goroutine per Eden thread; each thread belongs to exactly one
//     PE. A PE is a big lock (mutex + condvar): a thread holds its PE's
//     mutex for its entire execution and releases it only while blocked
//     on a placeholder (cond.Wait) or during message transport. Threads
//     of one PE therefore interleave only at communication and blocking
//     points — the same granularity as the simulator, which is what
//     makes the skeletons' plain shared-state mutations (e.g. the
//     master-worker coordination state) safe unchanged. Virtual PEs
//     beyond GOMAXPROCS are just goroutines; the Go scheduler
//     timeslices them the way the OS timesliced the paper's 9- and
//     17-PE PVM runs on 8 cores.
//   - No shared graph between PEs. Every value sent over a channel is
//     reduced to normal form, measured with the simulator's packing
//     model (eden.SizeOfChecked), and deep-copied before it is resolved
//     into the receiving PE's heap — a *graph.Thunk is never reachable
//     from two PEs. Channel cells live in a per-PE registry keyed by
//     channel id; ports are plain {id, pe} value structs, so shipping a
//     port ships no heap.
//   - Inports are heap placeholders (graph.NewPlaceholder): a thread
//     forcing one blocks on its PE's condvar until the message lands
//     and the deliverer broadcasts.
//   - Each PE owns a graph.Arena for its thunk allocation and a
//     wall-clock eventlog buffer; sends and receives emit
//     MsgSend/MsgRecv under CommBegin/CommEnd brackets, so the drained
//     log renders EdenTV-style per-PE timelines with message overlays
//     through the same exporters as the GpH runtimes.
//
// Go's garbage collector remains global — per-PE *independent* GC is a
// property this backend cannot reproduce honestly, so the telemetry
// reports what is real: run-level GC cycles/pauses plus per-PE
// allocation, arena footprint and message volume (see DESIGN.md §8).
package nativeeden

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/gcscope"
	"parhask/internal/graph"
	"parhask/internal/metrics"
	"parhask/internal/pe"
	"parhask/internal/trace"
)

// Config selects a native Eden runtime setup.
type Config struct {
	// PEs is the number of processing elements. It may exceed
	// GOMAXPROCS (virtual PEs); defaults to GOMAXPROCS.
	PEs int
	// EventLog enables the per-PE wall-clock event rings; Result.Trace
	// then renders the EdenTV-style per-PE timeline.
	EventLog bool
	// Faults is an optional fault-injection plan (nil = none): injected
	// process panics, per-edge message drop/delay, and stalled PEs, all
	// seed-deterministic for exact replay.
	Faults *faults.Injector
	// Deadline arms the watchdog: the run fails with a structured
	// *faults.DeadlockError either when global quiescence is detected
	// (every live thread blocked on a placeholder, no progress) or when
	// the hard deadline expires, whichever comes first. Zero disables
	// the watchdog (and quiescence detection with it).
	Deadline time.Duration
	// Metrics, if non-nil, registers lane telemetry series
	// (internal/metrics). Honoured by NewResident only; batch runs
	// report through Result. Nil — the default — keeps every recording
	// hook a nil check.
	Metrics *metrics.Registry
	// Cluster, if non-nil, makes this RTS one member of a multi-process
	// Eden cluster (see cluster.go): it hosts only its rank's PEs,
	// cross-process sends go through Cluster.Transport as wire-encoded
	// bytes, and PEs is overridden to Cluster.TotalPEs(). Deadline is
	// ignored — deadlock detection is the coordinator's job, because a
	// worker waiting on remote messages is locally quiescent.
	Cluster *ClusterSpec
}

// NewConfig returns a native Eden configuration with pes PEs.
func NewConfig(pes int) Config {
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	return Config{PEs: pes}
}

// Stats aggregates counters over one native Eden run.
type Stats struct {
	// Messages / BytesSent count every channel and stream packet
	// (stream elements are one message each, as in Eden).
	Messages  int64 `json:"messages"`
	BytesSent int64 `json:"bytes_sent"`
	// Processes counts Spawn instantiations; ThreadsCreated counts every
	// thread (processes, local forks, and the root).
	Processes      int64 `json:"processes"`
	ThreadsCreated int64 `json:"threads_created"`
}

// PEStats is one PE's share of the run counters — owner-written under
// the PE's lock, read after the run's join barrier.
type PEStats struct {
	// MsgsSent/MsgsRecv and BytesSent/BytesRecv count this PE's side of
	// every packet.
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// Threads counts threads that ran on this PE.
	Threads int64 `json:"threads"`
	// AllocBytes is the heap allocation the workload declared via Alloc
	// (the virtual-cost hook doubles as telemetry here); Resident is
	// long-lived data declared via AddResident.
	AllocBytes int64 `json:"alloc_bytes"`
	Resident   int64 `json:"resident_bytes"`
	// ArenaChunks/ArenaThunks describe the PE's thunk arena footprint.
	ArenaChunks int64 `json:"arena_chunks"`
	ArenaThunks int64 `json:"arena_thunks"`
}

// GCStats is what Go's (global) collector did while the run executed.
// There is no per-PE GC to report — Go's heap is shared — so this is
// run-level, with the per-PE allocation story carried by PEStats.
type GCStats = gcscope.Delta

// Result is the outcome of one native Eden run.
type Result struct {
	// Value is what the root process returned.
	Value graph.Value
	// WallNS is the real elapsed time in nanoseconds.
	WallNS int64
	// PEs is the processing-element count the run used.
	PEs int
	// Stats is the whole-run aggregate.
	Stats Stats
	// PerPE breaks the counters down by PE.
	PerPE []PEStats
	// GC is the run-level Go GC telemetry.
	GC GCStats
	// Events is the drained per-PE eventlog (nil unless Config.EventLog).
	Events *eventlog.Log
}

// Wall returns the elapsed wall-clock time as a duration.
func (r *Result) Wall() time.Duration { return time.Duration(r.WallNS) }

// Trace reduces the run's eventlog into a wall-clock per-PE trace.Log
// ("pe0", "pe1", …), rendered by the same exporters as the simulated
// EdenTV figures. Returns nil when the run was not event-logged.
func (r *Result) Trace() *trace.Log {
	if r.Events == nil {
		return nil
	}
	return r.Events.TraceNamed("pe")
}

// Report is the machine-readable summary of a native Eden run.
type Report struct {
	PEs    int       `json:"pes"`
	WallNS int64     `json:"wall_ns"`
	Total  Stats     `json:"total"`
	GC     GCStats   `json:"gc"`
	PerPE  []PEStats `json:"per_pe"`
}

// Report builds the machine-readable summary of the run.
func (r *Result) Report() Report {
	return Report{PEs: r.PEs, WallNS: r.WallNS, Total: r.Stats, GC: r.GC, PerPE: r.PerPE}
}

// peRT is one processing element: the big lock its threads serialise
// on, its private heap machinery, and its owner-written counters
// (owner = whichever thread currently holds mu).
type peRT struct {
	id   int
	rts  *RTS
	mu   sync.Mutex
	cond *sync.Cond

	// arena is this PE's thunk allocation region. Guarded by mu.
	arena *graph.Arena

	// cells maps channel id -> the inport placeholder living in this
	// PE's heap; streams maps stream id -> its cursor pair. Guarded by
	// mu.
	cells   map[int64]*cellState
	streams map[int64]*streamState

	// blockedOn records, per blocked thread, what it is waiting for —
	// the diagnostics a *faults.DeadlockError reports. Guarded by mu
	// (written by the blocking thread at block entry, read by the
	// watchdog under TryLock).
	blockedOn map[*PCtx]faults.BlockedThread

	// ctr is this PE's counter block. Guarded by mu.
	ctr PEStats

	// ev is this PE's wall-clock event ring (nil when disabled). All
	// emissions happen under mu, which serialises the PE's threads, so
	// the buffer's single-writer discipline holds.
	ev *eventlog.Buf
}

// cellState is one one-value channel's heap anchor on its owning PE:
// the inport placeholder plus the PE that created the channel (the
// best available guess at the peer expected to fill it, used by the
// deadlock watchdog's diagnostics).
type cellState struct {
	t      *graph.Thunk
	origin int
}

// streamState is one stream channel's heap anchor on its owning PE:
// tail is where the next arriving element lands (advanced by senders),
// cursor is the next cell the receiver will read. origin is the
// creating PE (watchdog diagnostics).
type streamState struct {
	tail   *graph.Thunk
	cursor *graph.Thunk
	origin int
}

// RTS is a running native Eden instance.
type RTS struct {
	cfg Config
	pes []*peRT

	// chanIDs hands out channel and stream ids for root threads (a
	// sequence that replays identically across cluster processes);
	// workerChanIDs feeds the rank-partitioned space non-root threads
	// allocate from in cluster mode (see newChanID).
	chanIDs       atomic.Int64
	workerChanIDs atomic.Int64

	// stats fields updated from any thread.
	processes atomic.Int64
	threads   atomic.Int64

	// Watchdog bookkeeping. alive counts threads that have been spawned
	// and not yet exited; blocked counts threads currently inside
	// cond.Wait; progress increments on every wait return. Global
	// quiescence — alive > 0, blocked == alive, and all three stable
	// across watchdog ticks — is a deadlock: every live thread waits on
	// a placeholder no runnable thread can fill.
	alive    atomic.Int64
	blocked  atomic.Int64
	progress atomic.Uint64

	// latch records the run's first failure; blocked threads check it
	// at every wait (see fail).
	latch faults.Latch

	wg sync.WaitGroup

	events *eventlog.Log
}

// Run executes main as the root process on PE 0 and returns the
// result. The value is identical to the same program's simulated-Eden
// and sequential runs (referential transparency); only the time is
// real.
func Run(cfg Config, main pe.Program) (*Result, error) {
	r, err := NewRTS(cfg)
	if err != nil {
		return nil, err
	}
	return r.RunMain(main)
}

// NewRTS assembles a runtime without executing anything — the entry
// point cluster workers need, because the transport reader must be
// wired to Deliver before RunMain starts the program. In cluster mode
// only this rank's PEs exist; the r.pes slice keeps global indexing
// with nil holes for remote PEs.
func NewRTS(cfg Config) (*RTS, error) {
	if cl := cfg.Cluster; cl != nil {
		if err := cl.validate(); err != nil {
			return nil, err
		}
		cfg.PEs = cl.TotalPEs()
	} else if cfg.PEs <= 0 {
		cfg.PEs = runtime.GOMAXPROCS(0)
	}
	r := &RTS{cfg: cfg}
	r.pes = make([]*peRT, cfg.PEs)
	for i := range r.pes {
		if cl := cfg.Cluster; cl != nil && !cl.Owns(i) {
			continue
		}
		p := newPE(i)
		p.rts = r
		r.pes[i] = p
	}
	return r, nil
}

// RunMain executes main as the program's root process. On cluster rank
// 0 (and always outside cluster mode) the root is real; on other ranks
// it runs as the shadow-root replay (see cluster.go) and RunMain
// returns ErrDrained once the coordinator drains the run.
func (r *RTS) RunMain(main pe.Program) (*Result, error) {
	if main == nil {
		return nil, errors.New("nativeeden: nil main")
	}
	return r.run(main, 0)
}

// newPE builds one processing element with empty registries and a
// fresh arena. The rts pointer is attached by the caller: a batch Run
// wires it once, a Resident lane re-points the same PEs at a fresh
// per-job RTS.
func newPE(id int) *peRT {
	p := &peRT{id: id,
		arena:     graph.NewArena(0),
		cells:     map[int64]*cellState{},
		streams:   map[int64]*streamState{},
		blockedOn: map[*PCtx]faults.BlockedThread{},
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// run executes main as the root process on PE 0 of an assembled RTS —
// the shared execution core of the batch Run and the Resident lane. A
// non-zero traceID (a lane job's JobConfig.TraceID) tags PE 0's ring.
func (r *RTS) run(main pe.Program, traceID int32) (*Result, error) {
	cfg := r.cfg
	cl := cfg.Cluster
	gcWin := gcscope.Begin()
	start := time.Now()
	if cfg.EventLog {
		// In cluster mode the rings cover only the local PEs (event
		// indices are local; the worker names them by global PE id when
		// it dumps the log for the coordinator to fold).
		n := cfg.PEs
		if cl != nil {
			n = cl.PerProc
		}
		r.events = eventlog.New(start, n, eventlog.Config{})
		li := 0
		for _, p := range r.pes {
			if p == nil {
				continue
			}
			// Publish the ring under the PE lock: in cluster mode the
			// transport reader is already live and Deliver checks p.ev
			// (under the same lock) to decide whether to emit MsgRecv.
			// A frame that lands before this sees nil and goes unlogged,
			// which is fine — but the pointer itself must not tear.
			p.mu.Lock()
			p.ev = r.events.Buf(li)
			li++
			if p.id == 0 && traceID != 0 {
				// The mark is the ring's first event so a trace reader can
				// identify the job before decoding anything else. Emitted
				// pre-thread, so the single-writer rule holds.
				p.ev.EmitArg(eventlog.TraceMark, traceID)
			}
			// A PE with no thread is idle, not runnable: open an Idle
			// bracket each thread's Run brackets nest inside. Emitted here,
			// before any thread exists, so the single-writer rule holds.
			p.ev.Emit(eventlog.IdleBegin)
			p.mu.Unlock()
		}
	}

	// The watchdog is its own goroutine: it fires while the root thread
	// itself may be among the deadlocked. Cluster members never arm it —
	// a worker blocked on remote messages is locally quiescent, so
	// deadlock detection belongs to the coordinator.
	var watchdogStop chan struct{}
	if cfg.Deadline > 0 && cl == nil {
		watchdogStop = make(chan struct{})
		go r.watchdog(start, watchdogStop)
	}

	// The caller's goroutine is the root process's thread on PE 0 — or,
	// on a cluster rank other than 0, the shadow-root replay pinned to
	// this rank's first local PE.
	var value graph.Value
	rootPE := r.pes[0]
	shadow := false
	if cl != nil && cl.Rank != 0 {
		rootPE = r.pes[cl.Rank*cl.PerProc]
		shadow = true
	}
	c0 := &PCtx{rts: r, pe: rootPE, name: "root", isRoot: true, shadow: shadow}
	r.threads.Add(1)
	r.alive.Add(1)
	runErr := c0.runThread(func() string { return "nativeeden: root process panicked" }, func() {
		c0.begin()
		value = main(c0)
		c0.end()
	})
	r.alive.Add(-1)
	if runErr != nil {
		// The root's failure must unwind every blocked thread, exactly as
		// a thread panic aborts the root (see the native GpH runtime's
		// main-panic path for the hang this prevents). The latch keeps the
		// first failure when the root merely unwound on its abort.
		r.fail(runErr)
	}
	r.wg.Wait()
	if watchdogStop != nil {
		close(watchdogStop)
	}
	wall := time.Since(start)
	res := &Result{Value: value, WallNS: wall.Nanoseconds(), PEs: cfg.PEs, GC: gcWin.End()}
	if runErr == nil {
		// A Drain or Fail from outside may race a root that returned.
		runErr = r.latch.Err()
	}
	res.Stats = Stats{Processes: r.processes.Load(), ThreadsCreated: r.threads.Load()}
	res.PerPE = make([]PEStats, cfg.PEs)
	for i, p := range r.pes {
		if p == nil {
			continue // remote PE (cluster mode); its owner reports it
		}
		// The WaitGroup barrier orders every PE-thread write before this,
		// but in cluster mode Deliver runs on the transport reader — a
		// late frame (a peer's send still in flight when our run ended)
		// can still touch ctr and the arena. The PE lock covers that
		// writer.
		p.mu.Lock()
		ps := p.ctr
		ps.ArenaChunks, ps.ArenaThunks = p.arena.Stats()
		p.mu.Unlock()
		res.PerPE[i] = ps
		res.Stats.Messages += ps.MsgsSent
		res.Stats.BytesSent += ps.BytesSent
	}
	if r.events != nil {
		r.events.Close(res.WallNS)
		res.Events = r.events
	}
	if runErr != nil {
		// Failed runs still return the partial Result — flushed event
		// rings and counters — so tracedump and the chaos soak can render
		// what happened up to the failure. Only the value is withheld.
		res.Value = nil
		return res, runErr
	}
	return res, nil
}

// watchdog polls the run's liveness counters. It fails the run with a
// structured *faults.DeadlockError on global quiescence (every live
// thread blocked, nothing progressing, stable across ticks) or when
// the hard deadline expires. Stopped by closing stop after the join
// barrier.
func (r *RTS) watchdog(start time.Time, stop chan struct{}) {
	const tick = 2 * time.Millisecond
	// ~40ms of perfect stillness before declaring quiescence: long
	// enough that a delay-injected sender (alive, not blocked) can't be
	// mistaken for deadlock, short enough that hung tests fail fast.
	const stableTicks = 20
	var lastAlive, lastBlocked int64
	var lastProgress uint64
	stable := 0
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if r.latch.Failed() {
			return
		}
		elapsed := time.Since(start)
		if elapsed >= r.cfg.Deadline {
			r.fail(r.deadlockError("deadline", elapsed))
			return
		}
		a, b, pr := r.alive.Load(), r.blocked.Load(), r.progress.Load()
		if a > 0 && b == a && a == lastAlive && b == lastBlocked && pr == lastProgress {
			stable++
			if stable >= stableTicks {
				r.fail(r.deadlockError("quiescence", elapsed))
				return
			}
		} else {
			stable = 0
		}
		lastAlive, lastBlocked, lastProgress = a, b, pr
	}
}

// deadlockError collects per-PE blocked-on diagnostics. TryLock, not
// Lock: on the quiescence path every PE lock is free (all threads are
// in cond.Wait), but on the deadline path a long-running mutator may
// hold its PE for its whole execution — report that PE as busy rather
// than hang the watchdog behind it.
func (r *RTS) deadlockError(reason string, elapsed time.Duration) *faults.DeadlockError {
	de := &faults.DeadlockError{Backend: "nativeeden", Reason: reason, Elapsed: elapsed}
	for _, p := range r.pes {
		if p == nil {
			continue
		}
		if !p.mu.TryLock() {
			de.Blocked = append(de.Blocked, faults.BlockedThread{
				PE: p.id, Thread: "(busy)", Reason: "running", Chan: -1, Peer: -1,
			})
			continue
		}
		for _, b := range p.blockedOn {
			de.Blocked = append(de.Blocked, b)
		}
		p.mu.Unlock()
	}
	sort.Slice(de.Blocked, func(i, j int) bool {
		if de.Blocked[i].PE != de.Blocked[j].PE {
			return de.Blocked[i].PE < de.Blocked[j].PE
		}
		return de.Blocked[i].Thread < de.Blocked[j].Thread
	})
	return de
}

// fail records the run's first failure and wakes every blocked thread
// so the run unwinds instead of hanging. A later failure changes
// nothing: every thread that blocks after the first one checks the
// latch before it waits.
func (r *RTS) fail(err error) {
	if !r.latch.Fail(err) {
		return
	}
	for _, p := range r.pes {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// runThread is the one recovery bracket of an Eden thread, the root or
// a spawned one: it runs body holding the thread's PE lock and returns
// the failure that ended the thread, or nil. A panic becomes an error
// (the run's recorded failure when it is the latch's abort), and the
// claims the thread still holds are poisoned, newest first, so peers
// blocked on them unblock into the failure path instead of waiting on
// a black hole forever. The recover is registered before the lock is
// taken, so the PE is unlocked again by the time the caller acts on
// the failure (fail locks every PE). what names the thread in the
// error; it runs only on failure.
func (c *PCtx) runThread(what func() string, body func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = c.rts.latch.Recovered(v, what())
			c.claims.Poison(err)
		}
	}()
	c.pe.mu.Lock()
	defer c.pe.mu.Unlock()
	body()
	return nil
}

// startThread runs body as a new Eden thread on PE p; the thread's
// failure fails the run. alive is incremented here, synchronously, so
// the watchdog counts a spawned-but-not-yet-scheduled thread as
// live-and-runnable rather than seeing a transiently quiescent system.
func (r *RTS) startThread(p *peRT, name string, body func(pe.Ctx)) {
	r.wg.Add(1)
	r.threads.Add(1)
	r.alive.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.alive.Add(-1)
		c := &PCtx{rts: r, pe: p, name: name}
		err := c.runThread(func() string {
			return fmt.Sprintf("nativeeden: PE %d thread %q panicked", p.id, name)
		}, func() {
			c.begin()
			body(c)
			c.end()
		})
		if err != nil {
			r.fail(err)
		}
	}()
}
