package graph

import (
	"reflect"
	"testing"
)

// mockCtx is a minimal single-threaded Context for unit-testing thunk
// semantics without a runtime system.
type mockCtx struct {
	eager      bool
	burned     int64
	alloced    int64
	entered    []*Thunk
	left       []*Thunk
	dups       int
	wakes      int
	blockPanic bool
}

func (m *mockCtx) Burn(ns int64)             { m.burned += ns }
func (m *mockCtx) Alloc(b int64)             { m.alloced += b }
func (m *mockCtx) EagerBlackholing() bool    { return m.eager }
func (m *mockCtx) BlackholeWriteCost() int64 { return 35 }
func (m *mockCtx) EnteredThunk(t *Thunk)     { m.entered = append(m.entered, t) }
func (m *mockCtx) LeftThunk(t *Thunk)        { m.left = append(m.left, t) }
func (m *mockCtx) BlockOnThunk(t *Thunk) {
	if m.blockPanic {
		panic("unexpected block")
	}
	// Single-threaded mock: a block would deadlock.
	panic("mockCtx: BlockOnThunk called")
}
func (m *mockCtx) WakeThunkWaiters(t *Thunk)   { m.wakes++; t.TakeWaiters() }
func (m *mockCtx) NoteDuplicateEntry(t *Thunk) { m.dups++ }

func TestForceCachesValue(t *testing.T) {
	ctx := &mockCtx{}
	calls := 0
	th := NewThunk(func(c Context) Value {
		calls++
		return 42
	})
	if v := Force(ctx, th); v != 42 {
		t.Fatalf("Force = %v, want 42", v)
	}
	if v := Force(ctx, th); v != 42 {
		t.Fatalf("second Force = %v, want 42", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1 (sharing)", calls)
	}
	if th.State() != Evaluated {
		t.Fatalf("state = %v, want evaluated", th.State())
	}
}

func TestNewValueIsEvaluated(t *testing.T) {
	th := NewValue("hello")
	if !th.IsEvaluated() || th.Value() != "hello" {
		t.Fatal("NewValue not pre-evaluated")
	}
	ctx := &mockCtx{}
	if v := Force(ctx, th); v != "hello" {
		t.Fatalf("Force = %v", v)
	}
	if ctx.burned != 0 {
		t.Fatal("forcing a value should cost nothing")
	}
}

func TestEagerBlackholingMarksOnEntry(t *testing.T) {
	ctx := &mockCtx{eager: true}
	var stateInside EvalState
	var th *Thunk
	th = NewThunk(func(c Context) Value {
		stateInside = th.State()
		return 1
	})
	Force(ctx, th)
	if stateInside != Blackholed {
		t.Fatalf("state during eval = %v, want blackholed", stateInside)
	}
	if ctx.burned != 35 {
		t.Fatalf("burned = %d, want 35 (one blackhole write)", ctx.burned)
	}
	if len(ctx.entered) != 0 {
		t.Fatal("eager policy must not register lazy-marking entries")
	}
}

func TestLazyBlackholingLeavesUnevaluated(t *testing.T) {
	ctx := &mockCtx{eager: false}
	var stateInside EvalState
	var th *Thunk
	th = NewThunk(func(c Context) Value {
		stateInside = th.State()
		return 1
	})
	Force(ctx, th)
	if stateInside != Unevaluated {
		t.Fatalf("state during eval = %v, want unevaluated (lazy window)", stateInside)
	}
	if len(ctx.entered) != 1 || ctx.entered[0] != th {
		t.Fatal("lazy policy must register the entered thunk for later marking")
	}
	if ctx.burned != 0 {
		t.Fatal("lazy entry should not pay the blackhole write")
	}
}

func TestMarkBlackhole(t *testing.T) {
	th := NewThunk(func(c Context) Value { return 1 })
	th.MarkBlackhole()
	if th.State() != Blackholed {
		t.Fatal("MarkBlackhole did not mark")
	}
	// Marking an evaluated thunk is a no-op.
	tv := NewValue(3)
	tv.MarkBlackhole()
	if tv.State() != Evaluated {
		t.Fatal("MarkBlackhole clobbered an evaluated thunk")
	}
}

func TestDuplicateEvaluationBothComplete(t *testing.T) {
	// Simulate two interleaved evaluators under lazy black-holing by
	// re-entering Force from inside compute (models thread B entering the
	// thunk during A's evaluation window).
	ctx := &mockCtx{eager: false}
	calls := 0
	var th *Thunk
	th = NewThunk(func(c Context) Value {
		calls++
		if calls == 1 {
			// "Thread B" duplicates the evaluation while A is inside.
			if v := Force(c, th); v != 7 {
				t.Fatalf("inner Force = %v, want 7", v)
			}
		}
		return 7
	})
	if v := Force(ctx, th); v != 7 {
		t.Fatalf("outer Force = %v", v)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (duplicate evaluation)", calls)
	}
	if ctx.dups != 1 {
		t.Fatalf("dups = %d, want 1", ctx.dups)
	}
	// Only the first completion should have updated the node and woken
	// waiters.
	if ctx.wakes != 1 {
		t.Fatalf("wakes = %d, want 1", ctx.wakes)
	}
	if th.State() != Evaluated || th.Value() != 7 {
		t.Fatal("thunk not updated correctly")
	}
}

// blockingCtx resolves the thunk when BlockOnThunk is called, modelling
// the evaluating thread finishing while we are suspended.
type blockingCtx struct {
	mockCtx
	blocks int
}

func (b *blockingCtx) BlockOnThunk(t *Thunk) {
	b.blocks++
	t.Resolve(9)
}

func TestForceOnBlackholeBlocksThenReturnsValue(t *testing.T) {
	ctx := &blockingCtx{}
	th := NewThunk(func(c Context) Value { return -1 })
	th.MarkBlackhole() // another thread is evaluating it
	if v := Force(ctx, th); v != 9 {
		t.Fatalf("Force = %v, want 9 (value written by evaluator)", v)
	}
	if ctx.blocks != 1 {
		t.Fatalf("blocks = %d, want 1", ctx.blocks)
	}
	if ctx.dups != 0 {
		t.Fatalf("dups = %d, want 0: blocking is not duplication", ctx.dups)
	}
}

func TestForceDeepNestedThunks(t *testing.T) {
	ctx := &mockCtx{}
	inner := NewThunk(func(c Context) Value { return 5 })
	outer := NewThunk(func(c Context) Value { return inner })
	v := ForceDeep(ctx, outer)
	if v != 5 {
		t.Fatalf("ForceDeep = %v, want 5", v)
	}
}

func TestForceDeepThunkSlice(t *testing.T) {
	ctx := &mockCtx{}
	ts := []*Thunk{
		NewThunk(func(c Context) Value { return 1 }),
		NewValue(2),
		NewThunk(func(c Context) Value { return NewValue(3) }),
	}
	v := ForceDeep(ctx, ts)
	vs, ok := v.([]Value)
	if !ok || len(vs) != 3 {
		t.Fatalf("ForceDeep = %#v", v)
	}
	for i, want := range []int{1, 2, 3} {
		if vs[i] != want {
			t.Fatalf("vs[%d] = %v, want %d", i, vs[i], want)
		}
	}
}

func TestForceDeepFlatDataUnchanged(t *testing.T) {
	ctx := &mockCtx{}
	data := []float64{1, 2, 3}
	v := ForceDeep(ctx, data)
	if got, ok := v.([]float64); !ok || &got[0] != &data[0] {
		t.Fatal("flat data should pass through unchanged")
	}
}

func TestValuePanicsOnUnevaluated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th := NewThunk(func(c Context) Value { return 1 })
	_ = th.Value()
}

// TestEvaluatorsCount: lazy evaluations are counted while they run;
// eager ones are not (the claim already admits one evaluator), so the
// counter stays 0 throughout.
func TestEvaluatorsCount(t *testing.T) {
	for _, c := range []struct {
		eager bool
		want  int
	}{{false, 1}, {true, 0}} {
		ctx := &mockCtx{eager: c.eager}
		var th *Thunk
		during := -1
		th = NewThunk(func(Context) Value {
			during = th.Evaluators()
			return 0
		})
		Force(ctx, th)
		if during != c.want {
			t.Fatalf("eager=%v: evaluators during eval = %d, want %d", c.eager, during, c.want)
		}
		if th.Evaluators() != 0 {
			t.Fatalf("eager=%v: evaluators after eval = %d, want 0", c.eager, th.Evaluators())
		}
	}
}

// TestThunkSize pins the node's layout: one state word shared with the
// evaluator count, one computation representation, the value and a
// pointer to the simulation's waiter list.
func TestThunkSize(t *testing.T) {
	if got := reflect.TypeOf(Thunk{}).Size(); got > 56 {
		t.Fatalf("Thunk is %d bytes, want <= 56", got)
	}
}

func TestPlaceholderAndResolve(t *testing.T) {
	ph := NewPlaceholder()
	if ph.State() != Blackholed {
		t.Fatal("placeholder must start black-holed")
	}
	ph.AddWaiter("waiter-1")
	ph.AddWaiter("waiter-2")
	if ph.NumWaiters() != 2 {
		t.Fatalf("NumWaiters = %d, want 2", ph.NumWaiters())
	}
	ws := ph.Resolve("hello")
	if len(ws) != 2 || ws[0] != "waiter-1" || ws[1] != "waiter-2" {
		t.Fatalf("waiters = %v", ws)
	}
	if ph.NumWaiters() != 0 || ph.TakeWaiters() != nil {
		t.Fatal("Resolve must clear the waiter list")
	}
	if !ph.IsEvaluated() || ph.Value() != "hello" {
		t.Fatal("placeholder not resolved")
	}
}

func TestResolvePanicsOnEvaluated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewValue(1).Resolve(2)
}

func TestCloneForExport(t *testing.T) {
	calls := 0
	orig := NewThunk(func(c Context) Value { calls++; return 5 })
	clone := orig.CloneForExport()
	orig.MarkBlackhole() // the home copy becomes a FetchMe

	ctx := &mockCtx{}
	if v := Force(ctx, clone); v != 5 {
		t.Fatalf("clone Force = %v", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	if orig.State() != Blackholed {
		t.Fatal("evaluating the clone must not touch the home copy")
	}
}

func TestCloneForExportPanicsOnClaimed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th := NewThunk(func(c Context) Value { return 1 })
	th.MarkBlackhole()
	th.CloneForExport()
}

func TestEvalStateStrings(t *testing.T) {
	if Unevaluated.String() != "unevaluated" ||
		Blackholed.String() != "blackholed" ||
		Evaluated.String() != "evaluated" {
		t.Fatal("bad state strings")
	}
	if EvalState(9).String() != "?" {
		t.Fatal("unknown state should render ?")
	}
}

func TestForceDeepValueSlice(t *testing.T) {
	ctx := &mockCtx{}
	vs := []Value{NewThunk(func(c Context) Value { return 1 }), 2}
	out := ForceDeep(ctx, vs).([]Value)
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("out = %v", out)
	}
}
