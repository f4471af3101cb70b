package faults

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestLatchFirstFailureWins: of N concurrent Fails exactly one is
// recorded, every Fail after it reports so, and Err is that one error.
// Run under -race: the record must be visible to any thread that saw
// Failed.
func TestLatchFirstFailureWins(t *testing.T) {
	const n = 32
	var l Latch
	if l.Failed() || l.Err() != nil {
		t.Fatal("zero latch is not open")
	}
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("failure %d", i)
	}
	firsts := make(chan error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, err := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if l.Fail(err) {
				firsts <- err
			}
			if !l.Failed() || l.Err() == nil {
				t.Error("a thread that failed the latch sees it open")
			}
		}()
	}
	close(start)
	wg.Wait()
	close(firsts)
	var won []error
	for err := range firsts {
		won = append(won, err)
	}
	if len(won) != 1 {
		t.Fatalf("%d Fails reported first, want 1", len(won))
	}
	if l.Err() != won[0] {
		t.Fatalf("Err = %v, want the first failure %v", l.Err(), won[0])
	}
	if l.Fail(errors.New("late")) || l.Err() != won[0] {
		t.Fatal("a late Fail replaced the recorded failure")
	}
}

// TestLatchAbortMapsToRecordedFailure: Check unwinds only a failed
// latch, and Recovered turns its sentinel back into the recorded error,
// unwrapped; any other panic keeps its prefix.
func TestLatchAbortMapsToRecordedFailure(t *testing.T) {
	var l Latch
	l.Check() // open: no panic
	boom := errors.New("boom")
	l.Fail(boom)
	p := func() (p any) {
		defer func() { p = recover() }()
		l.Check()
		return nil
	}()
	if p == nil {
		t.Fatal("Check on a failed latch did not unwind")
	}
	if err := l.Recovered(p, "thread panicked"); err != boom {
		t.Fatalf("abort maps to %v, want the recorded %v", err, boom)
	}
	if err := l.Recovered("other", "thread panicked"); err.Error() != "thread panicked: other" {
		t.Fatalf("plain panic maps to %q", err)
	}
	var none *Latch
	if err := none.Recovered(p, "x"); err == boom || err == nil {
		t.Fatalf("a nil latch mapped the sentinel to %v", err)
	}
}

// TestPanicErrKeepsErrorsAs: an error panic value stays matchable
// through the mapped error; a non-error one is formatted.
func TestPanicErrKeepsErrorsAs(t *testing.T) {
	ip := &InjectedPanic{Kind: "spark", Index: 3, Seed: 9}
	err := PanicErr("native: worker 1: spark panicked", ip)
	var got *InjectedPanic
	if !errors.As(err, &got) || got != ip {
		t.Fatalf("errors.As lost the *InjectedPanic through %v", err)
	}
	if !IsStructured(err) {
		t.Fatal("a wrapped injected panic is not structured")
	}
	if err := PanicErr("p", 42); err.Error() != "p: 42" || IsStructured(err) {
		t.Fatalf("non-error panic maps to %v", err)
	}
}
