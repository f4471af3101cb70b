package rts

import (
	"parhask/internal/graph"
	"parhask/internal/sim"
)

// Ctx is the execution context a thread's body receives. It implements
// graph.Context (forcing, black-holing, blocking) and exposes the
// mutator-facing runtime API (Burn, Alloc, Par, Fork).
type Ctx struct {
	Th *Thread
}

var _ graph.Context = (*Ctx)(nil)

func (x *Ctx) cap() *Cap { return x.Th.cap }

// Cap returns the capability the context's thread is running on.
func (x *Ctx) Cap() *Cap { return x.Th.cap }

// Now returns the current virtual time.
func (x *Ctx) Now() sim.Time { return x.cap().Task.Now() }

// Burn consumes ns of virtual mutator time.
func (x *Ctx) Burn(ns int64) { x.cap().Burn(ns) }

// Alloc accounts heap allocation. Every Costs.AllocBlock bytes the
// thread performs a heap check: the point where garbage collection can
// be triggered or joined and where the scheduler may context-switch.
// Threads that allocate slowly therefore reach these points rarely —
// exactly the GC-barrier delay the paper describes.
func (x *Ctx) Alloc(bytes int64) {
	th := x.Th
	th.allocSinceCheck += bytes
	costs := th.cap.Costs
	for th.allocSinceCheck >= costs.AllocBlock {
		th.allocSinceCheck -= costs.AllocBlock
		c := th.cap
		// The thread conceptually returns to the scheduler for a fresh
		// allocation block; GHC runs threadPaused here, so this is where
		// lazy black-holing catches up. The duplicate-evaluation window
		// is therefore one allocation block — tiny for allocation-heavy
		// grains (sumEuler chunks), but enough for simultaneous entries
		// into small shared thunks (the APSP pivot rows) to duplicate
		// whole evaluation chains.
		th.markEntered()
		c.Burn(costs.HeapCheck)
		c.AllocInArea += costs.AllocBlock
		c.AllocSinceGC += costs.AllocBlock
		c.TotalAlloc += costs.AllocBlock
		if c.Sys.HeapBoundary(c, th) {
			th.markEntered()
			c.Burn(costs.ContextSwitch)
			th.yieldDesched()
		}
	}
}

// EagerBlackholing reports the black-holing policy in force.
func (x *Ctx) EagerBlackholing() bool { return x.cap().Sys.EagerBlackholing() }

// BlackholeWriteCost is the cost of an eager thunk claim.
func (x *Ctx) BlackholeWriteCost() int64 { return x.cap().Costs.BlackholeWrite }

// EnteredThunk records a lazily-entered thunk for marking at the next
// deschedule point.
func (x *Ctx) EnteredThunk(t *graph.Thunk) {
	x.Th.entered = append(x.Th.entered, t)
}

// LeftThunk removes t from the pending lazy-marking list.
func (x *Ctx) LeftThunk(t *graph.Thunk) {
	e := x.Th.entered
	for i := len(e) - 1; i >= 0; i-- {
		if e[i] == t {
			copy(e[i:], e[i+1:])
			x.Th.entered = e[:len(e)-1]
			return
		}
	}
}

// BlockOnThunk suspends the thread until t is evaluated. The suspension
// itself is a deschedule point, so (under lazy black-holing) the
// thread's entered thunks are marked here — GHC's threadPaused.
func (x *Ctx) BlockOnThunk(t *graph.Thunk) {
	th := x.Th
	c := th.cap
	c.Burn(c.Costs.BlockOnBlackhole)
	if t.IsEvaluated() {
		// The evaluator finished while we were paying the suspension
		// cost; no need to park.
		return
	}
	th.markEntered()
	t.AddWaiter(th)
	th.blockedOn = t
	th.yieldBlocked()
	th.blockedOn = nil
}

// WakeThunkWaiters moves every thread blocked on t back to its
// capability's run queue, charging the wake cost to the caller (the
// thread that updated the thunk).
func (x *Ctx) WakeThunkWaiters(t *graph.Thunk) {
	x.cap().WakeWaiterList(t.TakeWaiters())
}

// NoteDuplicateEntry counts a duplicate evaluation entry.
func (x *Ctx) NoteDuplicateEntry(t *graph.Thunk) { x.cap().Sys.NoteDuplicate(t) }

// Force evaluates a thunk to weak head normal form.
func (x *Ctx) Force(t *graph.Thunk) graph.Value { return graph.Force(x, t) }

// ForceDeep evaluates a value to normal form.
func (x *Ctx) ForceDeep(v graph.Value) graph.Value { return graph.ForceDeep(x, v) }

// Par records t as a spark: a closure that may be evaluated in parallel
// if there are spare processor resources (GpH's par combinator).
func (x *Ctx) Par(t *graph.Thunk) { x.cap().Sys.Spark(x.cap(), x.Th, t) }

// Fork creates and enqueues a new thread on the current capability.
func (x *Ctx) Fork(name string, body func(*Ctx)) *Thread {
	return x.cap().SpawnThread(name, body)
}

// Yield voluntarily deschedules the current thread (it is requeued).
func (x *Ctx) Yield() {
	th := x.Th
	th.markEntered()
	th.cap.Burn(th.cap.Costs.ContextSwitch)
	th.yieldDesched()
}
