// Package graph implements the heap-graph reduction core shared by both
// runtimes: thunks (suspended computations), sharing, forcing to weak
// head normal form, deep forcing to normal form, and the black-holing
// machinery whose lazy/eager variants the paper analyses in §IV-A.3.
//
// A Thunk is a heap node that is either unevaluated, under evaluation
// ("black hole"), or evaluated. Forcing an evaluated thunk returns its
// cached value; forcing a black hole blocks the forcing thread until the
// evaluating thread updates the node; forcing an unevaluated thunk runs
// its computation.
//
// The difference between the two black-holing policies is *when* an
// unevaluated thunk is marked as under-evaluation:
//
//   - eager: immediately on entry (one extra write per thunk entry);
//   - lazy (GHC's default): only when the evaluating thread is context-
//     switched, leaving a time window during which other threads entering
//     the same thunk duplicate its evaluation — harmless semantically
//     (referential transparency) but wasted parallel work, which is
//     exactly what the paper's shortest-path measurements expose.
//
// Thunk state transitions use real atomics: the eager claim is a CAS and
// the update is published behind an atomic state store. Under the
// deterministic simulation only one task runs at a time, so the atomics
// change nothing; under the native work-stealing runtime
// (internal/native) the same Force is executed by truly concurrent
// goroutines, and the atomics are what make duplicate-entry counts
// measurable on real hardware without ever duplicating a *result*.
package graph

import "sync/atomic"

// Value is any heap value. Workloads use ints, floats, slices and small
// structs; thunks may appear inside []*Thunk and []Value for lazy
// structures.
type Value any

// EvalState is a thunk's lifecycle state.
type EvalState int8

const (
	// Unevaluated: never entered, or entered but not yet black-holed
	// (lazy policy window).
	Unevaluated EvalState = iota
	// Blackholed: marked as under evaluation; forcing threads must block.
	Blackholed
	// Evaluated: value available.
	Evaluated
	// updatingState is a transient internal state: an evaluator won the
	// update race and is writing the value. Externally reported as
	// Blackholed; the window is two plain stores wide.
	updatingState
	// Poisoned: the thread that claimed this thunk died before updating
	// it. The state is terminal — forcing a poisoned thunk panics with a
	// *PoisonError instead of blocking forever on a black hole that will
	// never be filled (the recovery half of the §IV-A black-holing
	// hazard under real faults).
	Poisoned
)

func (s EvalState) String() string {
	switch s {
	case Unevaluated:
		return "unevaluated"
	case Blackholed:
		return "blackholed"
	case Evaluated:
		return "evaluated"
	case Poisoned:
		return "poisoned"
	}
	return "?"
}

// PoisonError is panicked by Force when it reaches a poisoned thunk:
// the thread that had claimed the thunk died, so the value will never
// exist. Err is the failure that killed the claimant.
type PoisonError struct {
	Err error
}

func (e *PoisonError) Error() string {
	return "graph: forced a poisoned thunk (claimant died: " + e.Err.Error() + ")"
}

func (e *PoisonError) Unwrap() error { return e.Err }

// Context is the view a forcing thread has of its runtime system. The
// GpH capability scheduler, Eden PE threads and the native work-stealing
// workers all implement it.
type Context interface {
	// Burn consumes virtual mutator time.
	Burn(ns int64)
	// Alloc accounts bytes of heap allocation (and performs heap checks,
	// which may trigger GC or a context switch in virtual time).
	Alloc(bytes int64)
	// EagerBlackholing reports the black-holing policy in force.
	EagerBlackholing() bool
	// BlackholeWriteCost is the virtual cost of the eager claim write.
	BlackholeWriteCost() int64
	// EnteredThunk records that the current thread started evaluating t
	// without black-holing it (lazy policy); the runtime marks such
	// thunks at the next context switch.
	EnteredThunk(t *Thunk)
	// LeftThunk records that the current thread finished evaluating t.
	LeftThunk(t *Thunk)
	// BlockOnThunk suspends the current thread until t is Evaluated.
	BlockOnThunk(t *Thunk)
	// WakeThunkWaiters wakes all threads blocked on t (t just became
	// Evaluated). The waiters list is stored on the thunk; the runtime
	// interprets the entries it put there.
	WakeThunkWaiters(t *Thunk)
	// NoteDuplicateEntry records that the current thread entered a thunk
	// that another thread is already evaluating (lazy-black-holing
	// duplication), for statistics.
	NoteDuplicateEntry(t *Thunk)
}

// duplicateResultNoter is an optional Context extension: runtimes that
// implement it are told when an evaluator computed a value but lost the
// update race (lazy black-holing duplicated the work and the duplicate
// result is discarded).
type duplicateResultNoter interface {
	NoteDuplicateResult(t *Thunk)
}

// claimNoter is an optional Context extension: runtimes that implement
// it are told when the current thread eagerly claims a thunk and when
// that claim is released by the update. The native runtime uses the
// open-claim count to decide whether a blocked worker may safely run
// other sparks while waiting (leapfrogging): with an incomplete claim
// paused on the stack, a helped spark could depend on it and deadlock.
type claimNoter interface {
	NoteClaimed(t *Thunk)
	NoteReleased(t *Thunk)
}

// AdaptFn is a thunk's computation: a package-level trampoline that
// interprets the thunk's payload. Building a thunk from (adapt, payload)
// instead of a `func(Context) Value` closure avoids allocating a wrapper
// closure per thunk — the trampoline is shared by every thunk of its
// call site, and payloads that are themselves pointer-shaped (func
// values, pointers) box into the `any` without allocating.
type AdaptFn func(Context, any) Value

// Thunk is a shared heap node holding either a suspended computation or
// its value. It is 56 bytes: one word of state, one computation
// representation (adapt + payload), the value, and a pointer to the
// simulation's waiter list.
type Thunk struct {
	state atomic.Int32 // an EvalState
	// evaluators counts threads currently inside the computation under
	// lazy black-holing (it can exceed 1 there). It shares state's
	// 8-byte word.
	evaluators atomic.Int32
	adapt      AdaptFn
	payload    any
	val        Value
	// waiters holds runtime-owned records of threads blocked on this
	// thunk while it is black-holed (see AddWaiter). Simulation-only:
	// the native runtime polls the atomic state instead, so a lost
	// wakeup is impossible by construction, and its thunks never pay
	// for the list's slice header.
	waiters *[]any
}

// callFn is the AdaptFn of thunks built from a func(Context) Value: the
// payload is the function itself.
func callFn(c Context, payload any) Value { return payload.(func(Context) Value)(c) }

// NewThunk returns an unevaluated thunk for fn.
func NewThunk(fn func(Context) Value) *Thunk {
	return &Thunk{adapt: callFn, payload: fn} // zero state == Unevaluated
}

// NewThunkAdapted returns an unevaluated thunk computing adapt(ctx,
// payload) — see AdaptFn.
func NewThunkAdapted(adapt AdaptFn, payload any) *Thunk {
	return &Thunk{adapt: adapt, payload: payload}
}

// NewValue returns an already-evaluated thunk holding v.
func NewValue(v Value) *Thunk {
	t := &Thunk{val: v}
	t.state.Store(int32(Evaluated))
	return t
}

// NewPlaceholder returns a black-holed thunk with no computation: a heap
// placeholder that will be filled in by an arriving message (Eden's
// channel synchronisation, §III-B). Threads forcing it block until
// Resolve is called.
func NewPlaceholder() *Thunk {
	t := &Thunk{}
	t.state.Store(int32(Blackholed))
	return t
}

// CloneForExport returns a fresh unevaluated thunk sharing this thunk's
// computation — the packed copy of a spark shipped to another heap
// (GUM's SCHEDULE). The original is typically turned into a FetchMe by
// black-holing it, so local touchers block and fetch the remote value.
// It panics if the thunk is already claimed or evaluated.
func (t *Thunk) CloneForExport() *Thunk {
	if t.State() != Unevaluated {
		panic("graph: CloneForExport of " + t.State().String() + " thunk")
	}
	return &Thunk{adapt: t.adapt, payload: t.payload}
}

// Resolve fills a placeholder (or any not-yet-evaluated thunk) with v
// and returns the list of waiter records to be woken by the caller.
// It panics if the thunk is already evaluated or poisoned.
// Simulation-only (message handlers resolving channel placeholders);
// native evaluators publish through Force.
func (t *Thunk) Resolve(v Value) []any {
	if s := t.State(); s == Evaluated || s == Poisoned {
		panic("graph: Resolve of " + s.String() + " thunk")
	}
	t.val = v
	t.adapt, t.payload = nil, nil
	t.state.Store(int32(Evaluated))
	return t.TakeWaiters()
}

// AddWaiter records w, a runtime-owned record of a thread blocked on
// this black-holed thunk. The simulated runtimes append in BlockOnThunk
// and drain with TakeWaiters in WakeThunkWaiters.
func (t *Thunk) AddWaiter(w any) {
	if t.waiters == nil {
		t.waiters = new([]any)
	}
	*t.waiters = append(*t.waiters, w)
}

// TakeWaiters removes and returns the thunk's waiter records, in the
// order they were added.
func (t *Thunk) TakeWaiters() []any {
	if t.waiters == nil {
		return nil
	}
	ws := *t.waiters
	t.waiters = nil
	return ws
}

// NumWaiters returns how many waiter records the thunk holds.
func (t *Thunk) NumWaiters() int {
	if t.waiters == nil {
		return 0
	}
	return len(*t.waiters)
}

// State returns the thunk's current state.
func (t *Thunk) State() EvalState {
	s := EvalState(t.state.Load())
	if s == updatingState {
		// An evaluator is mid-update; externally that is still "under
		// evaluation".
		return Blackholed
	}
	return s
}

// IsEvaluated reports whether the thunk holds a value.
func (t *Thunk) IsEvaluated() bool { return t.State() == Evaluated }

// Value returns the thunk's value; it panics if the thunk is not
// evaluated (use Force).
func (t *Thunk) Value() Value {
	if t.State() != Evaluated {
		panic("graph: Value of unevaluated thunk")
	}
	return t.val
}

// Evaluators returns the number of threads currently evaluating the
// thunk under lazy black-holing (>1 indicates duplicate evaluation in
// progress). Eager evaluations are not counted: the claim CAS already
// admits exactly one evaluator, so they leave the counter at 0.
func (t *Thunk) Evaluators() int { return int(t.evaluators.Load()) }

// MarkBlackhole transitions an unevaluated thunk to Blackholed; the
// runtime calls this at context-switch time for the lazy policy. It is a
// no-op for thunks already black-holed or evaluated.
func (t *Thunk) MarkBlackhole() {
	t.state.CompareAndSwap(int32(Unevaluated), int32(Blackholed))
}

// TryClaim atomically claims an unevaluated thunk for evaluation — the
// eager black-holing write. Exactly one concurrent caller wins; the
// losers observe Blackholed (or Evaluated) and must block or retry.
func (t *Thunk) TryClaim() bool {
	return t.state.CompareAndSwap(int32(Unevaluated), int32(Blackholed))
}

// Poison marks a thunk whose claimant died: the value will never
// arrive, so any thread forcing (or blocked on) the thunk must fail
// instead of waiting. err is recorded and carried by the *PoisonError
// that Force panics with. Poisoning is terminal and loses to a
// completed update: an already-Evaluated thunk is never poisoned
// (its value is valid — the claimant died after publishing). Returns
// whether this call transitioned the thunk to Poisoned.
func (t *Thunk) Poison(err error) bool {
	for {
		s := t.state.Load()
		switch EvalState(s) {
		case Evaluated, Poisoned:
			return false
		case updatingState:
			// An update is mid-flight; it wins (value is real).
			continue
		default: // Unevaluated or Blackholed
			if t.state.CompareAndSwap(s, int32(updatingState)) {
				t.val = &PoisonError{Err: err}
				t.state.Store(int32(Poisoned))
				return true
			}
		}
	}
}

// PoisonedErr returns the *PoisonError of a poisoned thunk, or nil.
func (t *Thunk) PoisonedErr() *PoisonError {
	if t.State() != Poisoned {
		return nil
	}
	pe, _ := t.val.(*PoisonError)
	return pe
}

// publish installs v as the thunk's value unless another evaluator
// already updated it (possible only under lazy black-holing, where
// evaluation can be duplicated). It returns once the thunk is
// Evaluated, reporting whether this caller's value won.
func (t *Thunk) publish(v Value) bool {
	for {
		s := t.state.Load()
		switch EvalState(s) {
		case Evaluated:
			return false
		case Poisoned:
			// Never resurrect a poisoned thunk: its waiters have already
			// been routed to the failure path, and a late value appearing
			// after them would split the sharing guarantee.
			return false
		case updatingState:
			// Another evaluator is writing its value; the window is two
			// stores wide, so spin.
			continue
		default: // Unevaluated or Blackholed
			if t.state.CompareAndSwap(s, int32(updatingState)) {
				t.val = v
				t.state.Store(int32(Evaluated))
				return true
			}
		}
	}
}

// Force evaluates t to weak head normal form in the given context and
// returns its value. It implements the sharing + black-holing semantics
// described in the package comment, for both the simulated and the
// native runtime: claims and updates go through atomic state
// transitions, and the context supplies the policy (eager vs. lazy) and
// the blocking behaviour (virtual-time suspension vs. spin-and-steal).
func Force(ctx Context, t *Thunk) Value {
	for {
		switch t.State() {
		case Evaluated:
			return t.val

		case Poisoned:
			// The claimant died before updating; blocking would hang
			// forever, so propagate its failure instead.
			panic(t.val.(*PoisonError))

		case Blackholed:
			ctx.BlockOnThunk(t)
			// Loop: on wakeup the thunk is normally Evaluated.

		case Unevaluated:
			eager := ctx.EagerBlackholing()
			var cn claimNoter
			if eager {
				if !t.TryClaim() {
					// Lost the claim race to a concurrent evaluator
					// (native runtime only); re-dispatch on the new state.
					continue
				}
				ctx.Burn(ctx.BlackholeWriteCost())
				if c, ok := ctx.(claimNoter); ok {
					cn = c
					cn.NoteClaimed(t)
				}
			} else {
				ctx.EnteredThunk(t)
				if t.evaluators.Add(1) > 1 {
					ctx.NoteDuplicateEntry(t)
				}
			}
			// The computation fields are deliberately not cleared on
			// completion: under lazy black-holing a duplicate evaluator
			// may still be reading them, and clearing would race with it
			// (publish clears nothing for the same reason).
			v := t.adapt(ctx, t.payload)
			if !eager {
				t.evaluators.Add(-1)
			}
			ctx.LeftThunk(t)
			if cn != nil {
				cn.NoteReleased(t)
			}
			if t.publish(v) {
				// First evaluator to complete updates the node. (Under
				// lazy black-holing a duplicate evaluator may arrive here
				// second; its value is discarded — referential
				// transparency guarantees it was equal anyway.)
				ctx.WakeThunkWaiters(t)
			} else if t.State() == Poisoned {
				// The thunk was poisoned while we were computing (a
				// supervisor declared our claim orphaned); the computed
				// value must not escape as if the claim were healthy.
				panic(t.val.(*PoisonError))
			} else if d, ok := ctx.(duplicateResultNoter); ok {
				d.NoteDuplicateResult(t)
			}
			return t.val
		}
	}
}

// ForceDeep forces v to normal form: thunks are forced and their values
// recursively deep-forced; []*Thunk and []Value are traversed
// element-by-element. Flat data (numbers, strings, numeric slices,
// structs without thunks) is already in normal form. Eden uses this for
// its reduce-to-normal-form-before-send semantics; GpH strategies use it
// for rnf.
func ForceDeep(ctx Context, v Value) Value {
	switch x := v.(type) {
	case *Thunk:
		return ForceDeep(ctx, Force(ctx, x))
	case []*Thunk:
		out := make([]Value, len(x))
		for i, t := range x {
			out[i] = ForceDeep(ctx, t)
		}
		return out
	case []Value:
		for i := range x {
			x[i] = ForceDeep(ctx, x[i])
		}
		return x
	default:
		return v
	}
}
