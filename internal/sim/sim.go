// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-style tasks.
//
// The kernel maintains a virtual clock (int64 nanoseconds) and an event
// queue ordered by (time, sequence number). Tasks are goroutines that run
// one at a time: exactly one task (or kernel callback) executes at any
// real instant, so simulated state needs no locking and every run of the
// same program is bit-for-bit reproducible. Virtual time intervals of
// different tasks still overlap freely, which is what models parallelism.
//
// Tasks yield to the kernel by advancing virtual time (Advance), parking
// (Park / SleepInterruptible) or finishing. Other tasks or timer callbacks
// wake parked tasks with Unpark.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// event is a scheduled occurrence: either resuming a task or running a
// kernel callback.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	task *Task  // non-nil: resume this task
	gen  uint64 // task resume generation; stale events are skipped
	fn   func() // non-nil: kernel callback
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// taskState describes where a task is in its lifecycle.
type taskState int8

const (
	tsNew     taskState = iota // spawned, not yet started
	tsRunning                  // currently executing (has the ball)
	tsWaiting                  // waiting for a scheduled resume event
	tsParked                   // parked indefinitely (needs Unpark)
	tsDone                     // finished
)

func (s taskState) String() string {
	switch s {
	case tsNew:
		return "new"
	case tsRunning:
		return "running"
	case tsWaiting:
		return "waiting"
	case tsParked:
		return "parked"
	case tsDone:
		return "done"
	}
	return "?"
}

// Task is a simulated thread of control: a goroutine that runs only when
// the kernel hands it the ball, and always returns the ball by yielding.
type Task struct {
	sim    *Sim
	id     int
	name   string
	state  taskState
	gen    uint64 // bumped whenever a pending resume event is invalidated
	permit bool   // a buffered Unpark (LockSupport-style)
	woke   bool   // last sleep ended due to Unpark rather than timeout

	resume chan struct{} // kernel -> task handoff
}

// Sim is a deterministic discrete-event simulator.
type Sim struct {
	now    Time
	seq    uint64
	queue  eventQueue
	tasks  []*Task
	live   int   // tasks not yet done
	cur    *Task // task currently holding the ball (nil in kernel/callback)
	yield  chan struct{}
	rng    PRNG
	panicV interface{} // re-raised panic from a task
	halted bool
}

// New returns a fresh simulator. seed initialises the simulator's
// deterministic PRNG (used e.g. for work-stealing victim selection).
func New(seed uint64) *Sim {
	return &Sim{
		yield: make(chan struct{}),
		rng:   NewPRNG(seed),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic PRNG.
func (s *Sim) Rand() *PRNG { return &s.rng }

// Spawn creates a new task executing fn and schedules it to start at the
// current virtual time. It may be called from the kernel (before Run),
// from another task, or from a timer callback.
func (s *Sim) Spawn(name string, fn func(t *Task)) *Task {
	t := &Task{
		sim:    s,
		id:     len(s.tasks),
		name:   name,
		state:  tsNew,
		resume: make(chan struct{}),
	}
	s.tasks = append(s.tasks, t)
	s.live++
	go func() {
		<-t.resume // wait for the kernel to start us
		defer func() {
			if r := recover(); r != nil {
				s.panicV = fmt.Sprintf("task %q panicked: %v", t.name, r)
			}
			t.state = tsDone
			s.live--
			s.cur = nil
			s.yield <- struct{}{}
		}()
		fn(t)
	}()
	s.schedule(s.now, t)
	return t
}

// After schedules fn to run in kernel context at now+d. Callbacks must not
// block; they may Unpark tasks, Spawn tasks, and schedule further callbacks.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.seq++
	heap.Push(&s.queue, &event{at: s.now + d, seq: s.seq, fn: fn})
}

// schedule enqueues a resume event for t at time at, tagged with t's
// current generation.
func (s *Sim) schedule(at Time, t *Task) {
	s.seq++
	t.state = tsWaiting
	heap.Push(&s.queue, &event{at: at, seq: s.seq, task: t, gen: t.gen})
}

// Run executes events until the queue is empty or the simulation is
// halted. It returns an error if any task is still alive (parked forever)
// when the queue drains — a simulated deadlock — or if a task panicked.
func (s *Sim) Run() error {
	for len(s.queue) > 0 && !s.halted {
		ev := heap.Pop(&s.queue).(*event)
		if ev.at < s.now {
			panic("sim: time went backwards")
		}
		s.now = ev.at
		if ev.fn != nil {
			ev.fn()
			continue
		}
		t := ev.task
		if t.gen != ev.gen || t.state == tsDone {
			continue // stale resume (cancelled sleep)
		}
		s.resumeTask(t)
		if s.panicV != nil {
			panic(s.panicV)
		}
	}
	if s.halted {
		return nil
	}
	if s.live > 0 {
		var stuck []string
		for _, t := range s.tasks {
			if t.state != tsDone {
				stuck = append(stuck, fmt.Sprintf("%s(%s)", t.name, t.state))
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock at t=%d: %d task(s) never finished: %v", s.now, s.live, stuck)
	}
	return nil
}

// Halt stops the simulation after the current event completes. Pending
// events are discarded; Run returns nil.
func (s *Sim) Halt() { s.halted = true }

// resumeTask hands the ball to t and waits for it to yield back.
func (s *Sim) resumeTask(t *Task) {
	t.state = tsRunning
	s.cur = t
	t.resume <- struct{}{}
	<-s.yield
}

// yieldToKernel gives the ball back to the kernel and blocks until the
// kernel resumes this task.
func (t *Task) yieldToKernel() {
	s := t.sim
	s.cur = nil
	s.yield <- struct{}{}
	<-t.resume
	t.state = tsRunning
	s.cur = t
}

func (t *Task) mustHoldBall(op string) {
	if t.sim.cur != t {
		panic(fmt.Sprintf("sim: %s called on task %q which is not running", op, t.name))
	}
}

// Name returns the task's name (for traces and error messages).
func (t *Task) Name() string { return t.name }

// ID returns the task's creation index.
func (t *Task) ID() int { return t.id }

// Sim returns the simulator this task belongs to.
func (t *Task) Sim() *Sim { return t.sim }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.sim.now }

// Advance moves this task d nanoseconds forward in virtual time.
// Unparks arriving during an Advance are buffered as a permit for the
// next Park/SleepInterruptible; Advance itself always sleeps fully.
func (t *Task) Advance(d Time) {
	t.mustHoldBall("Advance")
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	if d == 0 {
		return
	}
	t.gen++
	t.sim.schedule(t.sim.now+d, t)
	t.yieldToKernel()
}

// Park suspends the task until another task or callback calls Unpark. If
// a permit is buffered (an earlier Unpark arrived while the task was not
// parked), Park consumes it and returns immediately without yielding time.
func (t *Task) Park() {
	t.mustHoldBall("Park")
	if t.permit {
		t.permit = false
		return
	}
	t.gen++
	t.state = tsParked
	t.yieldToKernel()
}

// SleepInterruptible parks for at most d nanoseconds. It returns true if
// it was woken early by Unpark, false if the full duration elapsed. A
// buffered permit makes it return true immediately.
func (t *Task) SleepInterruptible(d Time) (woken bool) {
	t.mustHoldBall("SleepInterruptible")
	if t.permit {
		t.permit = false
		return true
	}
	if d < 0 {
		d = 0
	}
	t.gen++
	t.woke = false
	t.sim.schedule(t.sim.now+d, t)
	t.state = tsParked // parked-with-timeout: Unpark may preempt the timer
	t.yieldToKernel()
	return t.woke
}

// Unpark wakes t if it is parked (scheduling its resumption at the
// caller's current virtual time); otherwise it buffers a permit so that
// t's next Park/SleepInterruptible returns immediately. Unpark of a
// finished task is a no-op. It may be called from any task or callback.
func (t *Task) Unpark() {
	s := t.sim
	switch t.state {
	case tsDone:
		return
	case tsParked:
		t.gen++ // invalidate a pending sleep timeout, if any
		t.woke = true
		s.schedule(s.now, t)
	default:
		t.permit = true
	}
}

// Done reports whether the task has finished.
func (t *Task) Done() bool { return t.state == tsDone }
