package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errAbort is the panic value Latch.Check raises: it unwinds a thread
// that was waiting for a job or run that has already failed. Recovered
// maps it back to the failure the latch recorded.
var errAbort = errors.New("faults: aborted after an earlier failure")

// Latch records the first failure of a job or run — the one failure
// path both native runtimes share. Threads working for it poll Failed
// (or Check) in their blocking loops, so a failure needs no wakeup to
// be seen; the zero value is an open latch.
type Latch struct {
	failed atomic.Bool
	once   sync.Once
	err    error
}

// Fail records err unless a failure is already recorded, and reports
// whether err is the one recorded. The record happens before the flag
// is set, so a thread that sees Failed reads Err safely.
func (l *Latch) Fail(err error) (first bool) {
	l.once.Do(func() { l.err, first = err, true })
	l.failed.Store(true)
	return first
}

// Failed reports whether a failure has been recorded: one atomic load.
func (l *Latch) Failed() bool { return l.failed.Load() }

// Err returns the recorded failure, or nil while the latch is open.
func (l *Latch) Err() error {
	if !l.failed.Load() {
		return nil
	}
	return l.err
}

// Check unwinds the calling thread with the abort sentinel once a
// failure is recorded. Called at every iteration of a blocking loop, so
// no thread waits on a value that will never arrive.
func (l *Latch) Check() {
	if l.failed.Load() {
		panic(errAbort)
	}
}

// Recovered maps a value recovered from a panicking thread to the
// failure it stands for: the recorded failure when it is Check's abort
// sentinel, else the panic itself under prefix (see PanicErr). A nil
// latch maps every panic through PanicErr.
func (l *Latch) Recovered(p any, prefix string) error {
	if p == errAbort && l != nil {
		return l.Err()
	}
	return PanicErr(prefix, p)
}

// PanicErr turns a recovered panic value into an error. An error value
// is wrapped with %w, so structured failures (an *InjectedPanic, a
// *graph.PoisonError, a send error) stay matchable with errors.As
// through a run's top-level error.
func PanicErr(prefix string, p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return fmt.Errorf("%s: %v", prefix, p)
}
