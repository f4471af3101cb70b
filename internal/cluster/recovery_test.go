package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"parhask/internal/faults"
)

// superviseOK runs cfg under Run and gates the result on the
// workload's oracle — the recovery tests all demand oracle-equal
// results, not merely "something came back".
func superviseOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Deadline == 0 {
		cfg.Deadline = 60 * time.Second
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, oracle, err := BuildProgram(cfg.Spec)
	if err != nil {
		t.Fatalf("BuildProgram(%q): %v", cfg.Spec, err)
	}
	if err := oracle(res.Value); err != nil {
		t.Fatalf("recovered result fails the oracle: %v", err)
	}
	return res
}

func TestClusterRespawnAfterKill(t *testing.T) {
	// Rank 1 kills itself mid-run; the supervisor respawns the cluster
	// and the retry — with the one-shot fault spent — must produce the
	// oracle-equal result, with the death on the attempt history.
	for _, transport := range []string{"tcp", "unix"} {
		t.Run(transport, func(t *testing.T) {
			res := superviseOK(t, Config{
				Procs: 3, PerProc: 2, Transport: transport,
				Spec:     "sumeuler?n=4000&pechunks=4",
				Faults:   "kill-rank=1:30ms",
				Restarts: 2,
			})
			if res.Restarts != 1 {
				t.Fatalf("Restarts = %d, want 1 (one kill, one respawn)", res.Restarts)
			}
			if len(res.Attempts) != 1 {
				t.Fatalf("attempt history %+v, want one failed attempt", res.Attempts)
			}
			a := res.Attempts[0]
			if a.Rank != 1 || a.Attempt != 0 {
				t.Fatalf("attempt history blames rank %d attempt %d, want rank 1 attempt 0", a.Rank, a.Attempt)
			}
			if a.WallNS <= 0 || a.BackoffNS <= 0 {
				t.Fatalf("attempt timings missing: %+v", a)
			}
			if res.RecoveryNS <= 0 {
				t.Fatalf("RecoveryNS = %d, want > 0 after a recovery", res.RecoveryNS)
			}
		})
	}
}

func TestClusterSupervisedSeverRecovers(t *testing.T) {
	// Rank 1's control link is cut mid-run while its process lives on.
	// A broken link is a death: the supervisor replays the run, and the
	// one-shot sever is spent, so the retry completes oracle-equal.
	res := superviseOK(t, Config{
		Procs: 3, PerProc: 1, Transport: "tcp",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "sever-rank=1:20ms",
		Restarts: 1,
	})
	if res.Restarts != 1 || len(res.Attempts) != 1 {
		t.Fatalf("Restarts = %d, attempts %+v; want one restart", res.Restarts, res.Attempts)
	}
	if a := res.Attempts[0]; a.Rank != 1 || !strings.HasPrefix(a.Reason, "connection") {
		t.Fatalf("attempt blames rank %d for %q, want rank 1 and a connection reason", a.Rank, a.Reason)
	}
	if res.Reconnects != 0 {
		t.Fatalf("Reconnects = %d, want 0: a broken link is never healed in place", res.Reconnects)
	}
}

func TestClusterDeathReasonFollowsFault(t *testing.T) {
	// A killed rank's link closes as its process exits, so its EOF can
	// reach the coordinator before the exit does. The death must still
	// read as what the fault did: a kill is an exit with the fault's
	// status, a sever a connection death, whichever event comes first.
	for _, tc := range []struct{ name, fault, reason string }{
		{"kill", "kill-rank=1:30ms", "exit"},
		{"sever", "sever-rank=1:30ms", "connection"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := superviseOK(t, Config{
				Procs: 3, PerProc: 1, Transport: "tcp",
				Spec:     "sumeuler?n=4000&pechunks=4",
				Faults:   tc.fault,
				Restarts: 1,
			})
			if len(res.Attempts) != 1 {
				t.Fatalf("attempt history %+v, want one failed attempt", res.Attempts)
			}
			if a := res.Attempts[0]; a.Rank != 1 || !strings.HasPrefix(a.Reason, tc.reason) {
				t.Fatalf("%s: attempt blames rank %d for %q (%s), want rank 1 and %q", tc.fault, a.Rank, a.Reason, a.Err, tc.reason)
			}
			if tc.reason == "exit" && !strings.Contains(res.Attempts[0].Err, "exit status 3") {
				t.Fatalf("%s: death %q does not carry the kill's wait status", tc.fault, res.Attempts[0].Err)
			}
		})
	}
}

func TestClusterRestartBudgetExhausted(t *testing.T) {
	// rank-faults=every makes the kill recur on every attempt, so a
	// budget of one restart must fail with the full attempt history and
	// still expose the underlying structured death.
	_, err := Run(Config{
		Procs: 3, PerProc: 1, Transport: "tcp",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "kill-rank=1:30ms,rank-faults=every",
		Restarts: 1,
		Deadline: 60 * time.Second,
	})
	if err == nil {
		t.Fatal("recurring kill with a budget of 1 restart should fail")
	}
	var ex *RestartsExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *RestartsExhaustedError, got %T: %v", err, err)
	}
	if len(ex.Attempts) != 2 {
		t.Fatalf("attempt history has %d entries, want 2 (initial + 1 restart): %+v", len(ex.Attempts), ex.Attempts)
	}
	for i, a := range ex.Attempts {
		if a.Attempt != i || a.Rank != 1 {
			t.Fatalf("attempt %d recorded as %+v", i, a)
		}
	}
	var pd *faults.ProcessDeathError
	if !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("exhausted budget should still unwrap to the process death, got %v", err)
	}
	if !faults.IsStructured(err) {
		t.Fatalf("budget exhaustion not recognised as structured: %v", err)
	}
}

func TestClusterWedgeHeartbeat(t *testing.T) {
	// Rank 1 wedges — the process lives, the socket stays open, it just
	// stops talking. Only the heartbeat can see that; the death must say
	// so, and come promptly (4 missed beats), not by deadline.
	start := time.Now()
	_, err := Run(Config{
		Procs: 3, PerProc: 1, Transport: "tcp",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "wedge-rank=1:30ms",
		Deadline: 60 * time.Second,
	})
	if err == nil {
		t.Fatal("wedged worker, but Run returned no error")
	}
	var pd *faults.ProcessDeathError
	if !errors.As(err, &pd) {
		t.Fatalf("want *faults.ProcessDeathError, got %T: %v", err, err)
	}
	if pd.Rank != 1 {
		t.Fatalf("death reported for rank %d, want 1", pd.Rank)
	}
	if pd.Reason != "heartbeat timeout" {
		t.Fatalf("wedge reported as %q, want heartbeat timeout", pd.Reason)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("took %v to notice a wedged worker", elapsed)
	}
}

func TestClusterWedgeSupervisedRecovers(t *testing.T) {
	// A supervised run turns the same wedge into a recovery: the wedge
	// is one-shot, so the respawned attempt completes oracle-equal.
	res := superviseOK(t, Config{
		Procs: 3, PerProc: 1, Transport: "tcp",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "wedge-rank=1:30ms",
		Restarts: 2,
	})
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Restarts)
	}
	if res.Attempts[0].Reason != "heartbeat timeout" {
		t.Fatalf("attempt reason %q, want heartbeat timeout", res.Attempts[0].Reason)
	}
}

func TestClusterStructuredErrorAcrossFrames(t *testing.T) {
	// A worker whose run dies of an injected panic must surface that
	// exact structured class on the coordinator's error — the frameError
	// envelope carries the type across the process boundary.
	_, err := Run(Config{
		Procs: 2, PerProc: 2, Transport: "tcp",
		Spec:     "sumeuler?n=2000&pechunks=4",
		Faults:   "seed=7,panic-proc=0",
		Deadline: 60 * time.Second,
	})
	if err == nil {
		t.Fatal("injected panic, but Run returned no error")
	}
	var ip *faults.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("injected panic did not survive the wire: %T: %v", err, err)
	}
	if ip.Kind != "proc" || ip.Seed != 7 {
		t.Fatalf("injected panic fields lost in transit: %+v", ip)
	}
	if !faults.IsStructured(err) {
		t.Fatalf("wire-crossed panic not recognised as structured: %v", err)
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Fatalf("coordinator error %q does not name the failing rank", err)
	}
}

func TestWorkerErrorEnvelope(t *testing.T) {
	// The envelope round trip, without processes: encode a structured
	// failure, decode it, and check errors.As plus the degradation path.
	src := &faults.DeadlockError{Backend: "nativeeden", Reason: "quiescence", Elapsed: time.Second}
	err := decodeWorkerError(2, encodeWorkerError(src))
	var de *faults.DeadlockError
	if !errors.As(err, &de) || de.Reason != "quiescence" {
		t.Fatalf("deadlock did not survive the envelope: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("decoded error %q does not name the rank", err)
	}

	plain := decodeWorkerError(1, encodeWorkerError(errors.New("just text")))
	if faults.IsStructured(plain) {
		t.Fatalf("plain text error decoded as structured: %v", plain)
	}
	if !strings.Contains(plain.Error(), "just text") {
		t.Fatalf("plain text lost: %v", plain)
	}

	// Corrupt body: still an error, raw bytes preserved as text.
	corrupt := decodeWorkerError(0, []byte("not json at all"))
	if corrupt == nil || !strings.Contains(corrupt.Error(), "not json at all") {
		t.Fatalf("corrupt envelope handling: %v", corrupt)
	}
}

func TestRestartsExhaustedUnwrap(t *testing.T) {
	last := &faults.ProcessDeathError{Rank: 2, PEs: []int{2}, Reason: "exit"}
	ex := &RestartsExhaustedError{
		Attempts: []Attempt{{Attempt: 0, Rank: 2, Reason: "exit"}, {Attempt: 1, Rank: 2, Reason: "exit"}},
		Last:     last,
	}
	var pd *faults.ProcessDeathError
	if !errors.As(ex, &pd) || pd.Rank != 2 {
		t.Fatal("RestartsExhaustedError must unwrap to the last death")
	}
	msg := ex.Error()
	for _, want := range []string{"2 attempts", "attempt 0", "attempt 1", "rank 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("exhaustion message %q missing %q", msg, want)
		}
	}
}
