package graph

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// claimed returns n thunks claimed (black-holed) in order, as Force's
// eager claim leaves them.
func claimed(n int) []*Thunk {
	ts := make([]*Thunk, n)
	for i := range ts {
		ts[i] = NewThunk(func(Context) Value { return i })
		ts[i].TryClaim()
	}
	return ts
}

// TestClaimsPoisonNewestFirst: Poison walks the stack from the newest
// claim down. The oldest claim is left mid-update, where Poison must
// wait for the update to land; every newer claim has to be poisoned
// while it waits, which an oldest-first walk never reaches.
func TestClaimsPoisonNewestFirst(t *testing.T) {
	ts := claimed(4)
	ts[0].state.Store(int32(updatingState))
	release := sync.OnceFunc(func() {
		ts[0].val = 0
		ts[0].state.Store(int32(Evaluated))
	})
	defer release()
	c := Claims(append([]*Thunk(nil), ts...))
	done := make(chan int64, 1)
	go func() { done <- c.Poison(errors.New("died")) }()
	deadline := time.Now().Add(10 * time.Second)
	for i := len(ts) - 1; i > 0; i-- {
		for ts[i].State() != Poisoned {
			if time.Now().After(deadline) {
				t.Fatalf("claim %d not poisoned while the oldest was pending: the walk is not newest-first", i)
			}
			runtime.Gosched()
		}
	}
	release()
	if n := <-done; n != 3 {
		t.Fatalf("Poison = %d, want 3 (the oldest claim's update won)", n)
	}
	if ts[0].State() != Evaluated {
		t.Fatalf("oldest claim state = %v, want its update kept", ts[0].State())
	}
	if len(c) != 0 {
		t.Fatalf("stack holds %d claims after Poison", len(c))
	}
}

// TestClaimsCountsTransitionsOnly: Poison counts only the claims it
// moved to Poisoned — a claim already updated (the claimant died after
// publishing) or already poisoned keeps its state and is not counted.
func TestClaimsCountsTransitionsOnly(t *testing.T) {
	ts := claimed(3)
	ts[0].publish(7)
	ts[1].Poison(errors.New("earlier"))
	c := Claims(append([]*Thunk(nil), ts...))
	if n := c.Poison(errors.New("died")); n != 1 {
		t.Fatalf("Poison = %d, want 1 transition", n)
	}
	if ts[0].State() != Evaluated || ts[0].Value() != 7 {
		t.Fatal("an updated claim was poisoned")
	}
}

// TestClaimsReleasedNeverPoisoned: a popped claim is off the stack, so
// the thread's death cannot poison it even if its update is late.
func TestClaimsReleasedNeverPoisoned(t *testing.T) {
	ts := claimed(2)
	var c Claims
	c.Push(ts[0])
	c.Push(ts[1])
	c.Pop()
	if n := c.Poison(errors.New("died")); n != 1 {
		t.Fatalf("Poison = %d, want 1", n)
	}
	if ts[1].State() != Blackholed {
		t.Fatalf("released claim state = %v, want still black-holed", ts[1].State())
	}
	if ts[0].State() != Poisoned {
		t.Fatalf("open claim state = %v, want poisoned", ts[0].State())
	}
}

// TestClaimsPopEmpty: pop and poison on an empty stack are no-ops.
func TestClaimsPopEmpty(t *testing.T) {
	var c Claims
	c.Pop()
	if n := c.Poison(errors.New("died")); n != 0 || len(c) != 0 {
		t.Fatalf("empty stack: Poison = %d, len %d", n, len(c))
	}
	c.Push(NewPlaceholder())
	c.Pop()
	c.Pop()
	if len(c) != 0 {
		t.Fatalf("len = %d after popping past empty", len(c))
	}
}
