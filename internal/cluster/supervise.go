package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"parhask/internal/faults"
)

// The sleep before the first restart, doubling per attempt up to
// backoffCap.
const (
	backoffFirst = 100 * time.Millisecond
	backoffCap   = 5 * time.Second
)

// Attempt records one failed attempt of a supervised run.
type Attempt struct {
	// Attempt is the zero-based index of the failed attempt.
	Attempt int `json:"attempt"`
	// Rank is the rank whose death failed the attempt.
	Rank int `json:"rank"`
	// Reason is the structured death reason ("exit", "connection
	// closed", "heartbeat timeout", ...).
	Reason string `json:"reason"`
	// Err is the full error text.
	Err string `json:"err"`
	// WallNS is how long the attempt ran before failing; BackoffNS the
	// sleep that preceded the next attempt.
	WallNS    int64 `json:"wall_ns"`
	BackoffNS int64 `json:"backoff_ns"`
}

// RestartsExhaustedError reports a supervised run that failed every
// attempt its restart budget allowed. Unwrap exposes the last
// attempt's error, so errors.As still finds the underlying
// *faults.ProcessDeathError.
type RestartsExhaustedError struct {
	Attempts []Attempt
	Last     error
}

func (e *RestartsExhaustedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: restart budget exhausted after %d attempts", len(e.Attempts))
	for _, a := range e.Attempts {
		fmt.Fprintf(&b, "\n  attempt %d: rank %d: %s (%v)", a.Attempt, a.Rank, a.Reason, time.Duration(a.WallNS))
	}
	fmt.Fprintf(&b, "\n  last error: %v", e.Last)
	return b.String()
}

func (e *RestartsExhaustedError) Unwrap() error { return e.Last }

// Run executes the cluster run cfg describes under its restart budget
// cfg.Restarts. One attempt links every pair of workers, launches Procs
// workers re-executing this binary, supervises them, collects rank 0's
// result, drains and folds (see runAttempt). An attempt that fails with
// a process death — a worker that dies, wedges, or loses its control
// link before its report — respawns the workers and restarts the whole
// SPMD run after an exponential backoff, with the fault seed rotated
// per attempt so a seed-dependent injected fault does not recur
// identically. On success the Result carries the restart history and
// recovery latency; on a spent budget the error is a
// *RestartsExhaustedError wrapping the last failure. Any other failure
// (a deadline deadlock, a worker's own error) ends the run at once.
// With a zero budget Run makes exactly one attempt and returns its
// Result and error as they are: a *faults.ProcessDeathError for a
// death, a *faults.DeadlockError for deadline expiry, with the partial
// Result (whatever reports arrived).
//
// Full-run retry is the honest recovery unit here — the runtime's
// deterministic shadow-root replay means a restarted run recomputes
// exactly the same result, whereas resurrecting a single rank mid-run
// would need distributed checkpointing the paper's systems never had.
func Run(cfg Config) (*Result, error) {
	if cfg.Restarts == 0 {
		return runAttempt(cfg, 0)
	}
	backoff := backoffFirst
	var attempts []Attempt
	var firstFail time.Time
	for attempt := 0; ; attempt++ {
		began := time.Now()
		res, err := runAttempt(cfg, attempt)
		if err == nil {
			if res != nil {
				res.Restarts = len(attempts)
				res.Attempts = attempts
				if !firstFail.IsZero() {
					res.RecoveryNS = time.Since(firstFail).Nanoseconds()
				}
			}
			return res, nil
		}
		var pd *faults.ProcessDeathError
		if !errors.As(err, &pd) {
			return res, err
		}
		if firstFail.IsZero() {
			firstFail = began
		}
		a := Attempt{
			Attempt: attempt, Rank: pd.Rank, Reason: pd.Reason, Err: err.Error(),
			WallNS: time.Since(began).Nanoseconds(),
		}
		if attempt >= cfg.Restarts {
			attempts = append(attempts, a)
			return res, &RestartsExhaustedError{Attempts: attempts, Last: err}
		}
		a.BackoffNS = backoff.Nanoseconds()
		attempts = append(attempts, a)
		time.Sleep(backoff)
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}
