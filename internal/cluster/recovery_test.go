package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"parhask/internal/faults"
	"parhask/internal/metrics"
)

// superviseOK runs cfg under RunSupervised and gates the result on the
// workload's oracle — the recovery tests all demand oracle-equal
// results, not merely "something came back".
func superviseOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Deadline == 0 {
		cfg.Deadline = 60 * time.Second
	}
	res, err := RunSupervised(cfg)
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
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
			reg := metrics.New()
			res := superviseOK(t, Config{
				Procs: 3, PerProc: 2, Transport: transport,
				Spec:    "sumeuler?n=4000&pechunks=4",
				Faults:  "kill-rank=1:30ms",
				Restart: &Restart{Max: 2, Backoff: 30 * time.Millisecond},
				Metrics: reg,
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
			if got := reg.Counters()["cluster_restarts_total"]; got != 1 {
				t.Fatalf("cluster_restarts_total = %v, want 1", got)
			}
		})
	}
}

func TestClusterReconnectAfterFlap(t *testing.T) {
	// Rank 1's link drops for 80ms mid-run and the worker redials. The
	// run must ride it out in place: no restart, at least one accepted
	// reconnect, oracle-equal result (the seq/ack replay means no frame
	// was lost or doubled across the outage).
	for _, transport := range []string{"tcp", "unix"} {
		t.Run(transport, func(t *testing.T) {
			reg := metrics.New()
			res := runOK(t, Config{
				Procs: 3, PerProc: 2, Transport: transport,
				Spec:     "sumeuler?n=8000&pechunks=8",
				Faults:   "flap-rank=1:20ms:80ms",
				EventLog: true,
				Metrics:  reg,
				// Wide window: a loaded -race machine can starve the worker's
				// redial loop well past the 3s default, and this test is about
				// the replay protocol, not the scheduler's latency.
				ReconnectWindow: 20 * time.Second,
			})
			if res.Reconnects < 1 {
				t.Fatalf("Reconnects = %d, want >= 1 after a link flap", res.Reconnects)
			}
			if res.Restarts != 0 {
				t.Fatalf("a flap must heal in place, got %d restarts", res.Restarts)
			}
			if res.ReconnectNS <= 0 {
				t.Fatalf("ReconnectNS = %d, want > 0 (the outage had width)", res.ReconnectNS)
			}
			if got := reg.Counters()["cluster_reconnects_total"]; got < 1 {
				t.Fatalf("cluster_reconnects_total = %v, want >= 1", got)
			}
			// The merged timeline gains the coordinator's recovery lane
			// bracketing the outage.
			if res.Timeline == nil {
				t.Fatal("EventLog requested but Timeline is nil")
			}
			last := len(res.Timeline.Agents) - 1
			if last < 0 || res.Timeline.Agents[last] != "coord" {
				t.Fatalf("timeline agents %v missing the coord recovery lane", res.Timeline.Agents)
			}
			lane := res.Timeline.Events[last]
			if len(lane) < 2 || lane[0].Type != "block-begin" || lane[len(lane)-1].Type != "block-end" {
				t.Fatalf("coord lane %+v does not bracket the outage", lane)
			}
		})
	}
}

func TestClusterRestartBudgetExhausted(t *testing.T) {
	// rank-faults=every makes the kill recur on every attempt, so a
	// budget of one restart must fail with the full attempt history and
	// still expose the underlying structured death.
	_, err := RunSupervised(Config{
		Procs: 3, PerProc: 1, Transport: "tcp",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "kill-rank=1:30ms,rank-faults=every",
		Restart:  &Restart{Max: 1, Backoff: 20 * time.Millisecond},
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
		Spec:      "sumeuler?n=4000&pechunks=4",
		Faults:    "wedge-rank=1:30ms",
		Heartbeat: 100 * time.Millisecond,
		Deadline:  60 * time.Second,
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
		Spec:      "sumeuler?n=4000&pechunks=4",
		Faults:    "wedge-rank=1:30ms",
		Heartbeat: 100 * time.Millisecond,
		Restart:   &Restart{Max: 2, Backoff: 30 * time.Millisecond},
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
