// Package rts provides the runtime-system core that the GpH (shared
// heap) and Eden (distributed heap) implementations share: capabilities,
// lightweight threads multiplexed onto them, allocation accounting with
// block-granularity heap checks, thunk blocking/waking, and lazy
// black-hole marking at descheduling points.
//
// This mirrors the paper's observation that the two systems "share thread
// scheduling, and other elements, from a common code base": the pieces
// here are policy-free mechanics; each runtime supplies a System that
// decides what happens at heap-block boundaries (GC, context switches),
// where idle capabilities find work (sparks vs. messages), and what par
// means.
//
// Concurrency model: a Cap's scheduler loop is a sim.Task. Haskell
// threads are plain goroutines that exchange control with their
// capability through channels; all virtual time they consume is charged
// to the capability's task, so the simulation kernel still sees exactly
// one logical entity per capability.
package rts

import (
	"fmt"

	"parhask/internal/cost"
	"parhask/internal/graph"
	"parhask/internal/machine"
	"parhask/internal/sim"
	"parhask/internal/trace"
)

// System is the policy half of a runtime: the GpH RTS and the Eden PE
// both implement it.
type System interface {
	// FindWork is called by an idle capability's scheduler loop. It may
	// sleep or steal in virtual time, and returns the next thread to run,
	// or nil to shut the capability down (only when the whole runtime is
	// quiescent).
	FindWork(c *Cap) *Thread
	// HeapBoundary is called at every allocation-block boundary of the
	// running thread, in thread context. It may initiate or join a
	// garbage collection and decides whether the thread must be
	// descheduled (context switch).
	HeapBoundary(c *Cap, th *Thread) (deschedule bool)
	// Spark records a par annotation (GpH); systems without sparks panic.
	Spark(c *Cap, th *Thread, t *graph.Thunk)
	// EagerBlackholing reports the black-holing policy.
	EagerBlackholing() bool
	// ThreadCreated is called whenever a new thread is created on c.
	ThreadCreated(c *Cap, th *Thread)
	// ThreadDone is called when a thread's body returns.
	ThreadDone(c *Cap, th *Thread)
	// ThreadBlocked is called after th has been parked on a thunk.
	ThreadBlocked(c *Cap, th *Thread, on *graph.Thunk)
	// NoteDuplicate counts a duplicate thunk entry (lazy black-holing).
	NoteDuplicate(t *graph.Thunk)
}

// yieldReason tells the capability loop why a thread gave up control.
type yieldReason int8

const (
	yrDesched yieldReason = iota // timeslice expired: requeue
	yrBlocked                    // blocked on a thunk: waiters own it
	yrDone                       // body returned
)

// ThreadState describes a thread's lifecycle.
type ThreadState int8

const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadDone
)

// Thread is a lightweight (Haskell) thread.
type Thread struct {
	ID          int
	Name        string
	SparkThread bool // a dedicated spark-running thread (§IV-A.4)

	cap   *Cap // capability the thread last ran on / is queued on
	state ThreadState
	body  func(*Ctx)

	resume chan struct{}    // cap -> thread
	yield  chan yieldReason // thread -> cap

	// entered holds thunks this thread began evaluating without
	// black-holing them (lazy policy); marked at deschedule points.
	entered []*graph.Thunk
	// blockedOn is the thunk the thread is currently parked on, if any.
	blockedOn *graph.Thunk

	allocSinceCheck int64
	// runTime accumulates the virtual time this thread spent running
	// (granularity profiling, in the GranSim tradition the paper's
	// profiling discussion descends from).
	runTime int64
	// panicV carries a panic out of the thread's goroutine so the
	// capability (a simulation task) can re-raise it with context.
	panicV interface{}
}

// RunTime returns the total virtual time the thread has spent running.
func (th *Thread) RunTime() int64 { return th.runTime }

// BlockedOn returns the thunk the thread is blocked on, or nil.
func (th *Thread) BlockedOn() *graph.Thunk { return th.blockedOn }

// State returns the thread's lifecycle state.
func (th *Thread) State() ThreadState { return th.state }

// Cap returns the capability the thread is currently associated with.
func (th *Thread) Cap() *Cap { return th.cap }

// Cap is one capability: the resources for running Haskell computation
// on one (simulated) core, with its own run queue and allocation area —
// corresponding precisely to an Eden/GUM PE, as the paper notes.
type Cap struct {
	Index int
	Sys   System
	Task  *sim.Task
	CPU   *machine.CPU
	Costs *cost.Model
	Agent *trace.Agent

	runQ    []*Thread
	current *Thread

	// AllocInArea is the bytes allocated into this capability's
	// allocation area since the last GC (drives GC triggering);
	// AllocSinceGC is the same quantity kept for live-data estimation;
	// TotalAlloc accumulates over the whole run.
	AllocInArea  int64
	AllocSinceGC int64
	TotalAlloc   int64

	// ThreadsSpawned counts threads created on this capability.
	ThreadsSpawned int
	// BlockedCount is the number of threads that last ran on this
	// capability and are currently blocked on thunks (drives the paper's
	// "all threads blocked" red trace state).
	BlockedCount int

	exited bool
}

// NewCap creates a capability. The caller supplies the simulation task
// in Start.
func NewCap(index int, sys System, cpu *machine.CPU, costs *cost.Model, agent *trace.Agent) *Cap {
	return &Cap{Index: index, Sys: sys, CPU: cpu, Costs: costs, Agent: agent}
}

// Start spawns the capability's scheduler loop as a simulation task.
func (c *Cap) Start(s *sim.Sim) {
	s.Spawn(fmt.Sprintf("cap%d", c.Index), func(t *sim.Task) {
		c.Task = t
		c.loop()
	})
}

// loop is the capability scheduler: run queued threads; when none are
// queued ask the System for work; exit when the System says so.
func (c *Cap) loop() {
	for {
		th := c.dequeue()
		if th == nil {
			c.SetState(trace.Runnable)
			th = c.Sys.FindWork(c)
			if th == nil {
				break
			}
		}
		c.runThread(th)
	}
	c.exited = true
	c.SetState(trace.Idle)
}

// Exited reports whether the capability's scheduler loop has terminated.
func (c *Cap) Exited() bool { return c.exited }

// runThread hands the capability to th until it deschedules, blocks or
// finishes.
func (c *Cap) runThread(th *Thread) {
	if th.state != ThreadRunnable {
		panic(fmt.Sprintf("rts: running thread %q in state %d", th.Name, th.state))
	}
	th.cap = c
	th.state = ThreadRunning
	c.current = th
	c.SetState(trace.Run)
	start := c.Task.Now()
	th.resume <- struct{}{}
	reason := <-th.yield
	th.runTime += c.Task.Now() - start
	c.current = nil
	c.SetState(trace.Runnable)
	switch reason {
	case yrDesched:
		th.state = ThreadRunnable
		c.Enqueue(th)
	case yrBlocked:
		// Waiters list owns the thread now.
		c.BlockedCount++
		c.Sys.ThreadBlocked(c, th, th.blockedOn)
	case yrDone:
		if th.panicV != nil {
			// Re-raise in capability (simulation-task) context so the
			// panic reaches the caller of Run with the thread named.
			panic(fmt.Sprintf("thread %q panicked: %v", th.Name, th.panicV))
		}
		c.Sys.ThreadDone(c, th)
	}
}

// Current returns the thread currently running on the capability.
func (c *Cap) Current() *Thread { return c.current }

// RunQLen returns the current run-queue length.
func (c *Cap) RunQLen() int { return len(c.runQ) }

// Enqueue appends a runnable thread to the capability's run queue and
// wakes the capability if it is parked.
func (c *Cap) Enqueue(th *Thread) {
	if th.state == ThreadRunning || th.state == ThreadDone {
		panic(fmt.Sprintf("rts: enqueue of thread %q in state %d", th.Name, th.state))
	}
	if th.state == ThreadBlocked {
		th.cap.BlockedCount--
	}
	th.state = ThreadRunnable
	th.cap = c
	c.runQ = append(c.runQ, th)
	c.Wake()
}

// StealRunnable removes a thread from the back of the run queue (for
// pushing surplus threads to idle capabilities); nil if none to spare.
func (c *Cap) StealRunnable() *Thread {
	if len(c.runQ) < 2 {
		return nil
	}
	th := c.runQ[len(c.runQ)-1]
	c.runQ = c.runQ[:len(c.runQ)-1]
	return th
}

func (c *Cap) dequeue() *Thread {
	if len(c.runQ) == 0 {
		return nil
	}
	th := c.runQ[0]
	copy(c.runQ, c.runQ[1:])
	c.runQ = c.runQ[:len(c.runQ)-1]
	return th
}

// TryDequeue removes and returns the next runnable thread, or nil.
// Systems call it from their idle loops, where threads can arrive while
// the capability is parked.
func (c *Cap) TryDequeue() *Thread { return c.dequeue() }

// Wake unparks the capability's scheduler task (no-op if running).
func (c *Cap) Wake() {
	if c.Task != nil {
		c.Task.Unpark()
	}
}

// Burn consumes virtual CPU time on this capability's core.
func (c *Cap) Burn(ns int64) {
	if ns > 0 {
		c.CPU.Burn(c.Task, ns)
	}
}

// WakeWaiterList re-enqueues threads that were blocked on a thunk (the
// records a BlockOnThunk call added with Thunk.AddWaiter), charging the wake
// cost here on the calling capability. Used by message handlers that
// resolve channel placeholders outside any thread context.
func (c *Cap) WakeWaiterList(ws []any) {
	for _, w := range ws {
		th := w.(*Thread)
		c.Burn(c.Costs.WakeThread)
		th.cap.Enqueue(th)
	}
}

// SetState records the capability's activity state in the trace.
func (c *Cap) SetState(s trace.State) {
	if c.Agent != nil {
		c.Agent.Set(c.Task.Now(), s)
	}
}

// Now returns current virtual time.
func (c *Cap) Now() sim.Time { return c.Task.Now() }

// NewThread creates a thread that will run body, charging the creation
// cost to the creating capability. The thread is not enqueued.
func (c *Cap) NewThread(name string, body func(*Ctx)) *Thread {
	c.ThreadsSpawned++
	th := &Thread{
		ID:     c.ThreadsSpawned,
		Name:   name,
		cap:    c,
		state:  ThreadRunnable,
		body:   body,
		resume: make(chan struct{}),
		yield:  make(chan yieldReason),
	}
	go func() {
		<-th.resume
		defer func() {
			if r := recover(); r != nil {
				th.panicV = r
			}
			th.state = ThreadDone
			th.yield <- yrDone
		}()
		th.body(&Ctx{Th: th})
	}()
	c.Sys.ThreadCreated(c, th)
	return th
}

// SpawnThread creates a thread, charges its creation cost, and enqueues
// it on this capability.
func (c *Cap) SpawnThread(name string, body func(*Ctx)) *Thread {
	c.Burn(c.Costs.ThreadCreate)
	th := c.NewThread(name, body)
	c.Enqueue(th)
	return th
}

// MarkEntered black-holes every thunk the thread entered without
// marking (the lazy-black-holing catch-up done at deschedule points).
// Systems call it whenever they suspend a thread outside the normal
// deschedule paths (e.g. on GC arrival).
func (th *Thread) MarkEntered() {
	for _, t := range th.entered {
		t.MarkBlackhole()
	}
	th.entered = th.entered[:0]
}

// markEntered is the internal alias used by the rts paths.
func (th *Thread) markEntered() { th.MarkEntered() }

// yieldDesched suspends the thread back to its capability for requeueing.
func (th *Thread) yieldDesched() {
	th.yield <- yrDesched
	<-th.resume
}

// yieldBlocked suspends the thread; it will be resumed via Enqueue when
// the thunk it blocked on is updated.
func (th *Thread) yieldBlocked() {
	th.state = ThreadBlocked
	th.yield <- yrBlocked
	<-th.resume
}
