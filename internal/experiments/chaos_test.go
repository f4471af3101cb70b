package experiments

import (
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"parhask/internal/cluster"
	"parhask/internal/driver"
	"parhask/internal/faults"
	"parhask/internal/workloads/euler"
)

// TestMain lets the cluster soak re-execute this test binary as its
// worker processes.
func TestMain(m *testing.M) {
	cluster.MaybeWorker()
	os.Exit(m.Run())
}

func chaosParams() Params {
	p := Quick()
	p.SumEulerN = 300
	p.SumEulerChunks = 12
	return p
}

func TestChaosSoakInvariant(t *testing.T) {
	// A miniature of the acceptance soak: every iteration must end in a
	// correct result, a structured failure, or a diagnosed deadlock.
	// (The full 500-iteration soak runs via benchall -chaos / CI.)
	s := RunChaos(chaosParams(), InProcessBackends, 30, 42)
	if len(s.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(s.Rows))
	}
	if v := s.Violating(); len(v) > 0 {
		t.Fatalf("chaos violations:\n%s", s.String())
	}
	if s.OK == 0 {
		t.Fatal("the spec mix should let some runs succeed")
	}
	if s.Structured+s.Deadlocks == 0 {
		t.Fatal("the spec mix should inject some failures")
	}
	if s.OK+s.Structured+s.Deadlocks != 30 {
		t.Fatalf("classes don't sum: %+v", s)
	}
}

func TestChaosSoakDeterministic(t *testing.T) {
	// The replay property the repro commands rely on, as far as a real
	// scheduler lets it hold. Same seed → same fault plans, always. Same
	// outcome for every plan whose faults are indexed by something the
	// program fixes: messages (per-edge sequence), process spawns, PE
	// stalls. panic-spark=K is not such a plan: it counts sparks in the
	// order workers convert them, and how many of sumEuler's sparks are
	// converted rather than fizzled by the spine is the schedule — so
	// such a row may fire (structured) in one run and find no K-th
	// conversion (ok) in the next, and only that pair of classes.
	a := RunChaos(chaosParams(), InProcessBackends, 10, 7)
	b := RunChaos(chaosParams(), InProcessBackends, 10, 7)
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Spec != rb.Spec || ra.Backend != rb.Backend {
			t.Fatalf("iter %d: plans diverged: %+v vs %+v", i, ra, rb)
		}
		if !strings.Contains(ra.Spec, "panic-spark") {
			if ra.Outcome != rb.Outcome {
				t.Fatalf("iter %d diverged: %+v vs %+v", i, ra, rb)
			}
			continue
		}
		for _, r := range []ChaosRow{ra, rb} {
			if r.Outcome != ChaosOK && r.Outcome != ChaosStructured {
				t.Fatalf("iter %d: panic-spark row ended %q, want ok or structured: %+v", i, r.Outcome, r)
			}
		}
	}
}

func TestChaosSoakHTML(t *testing.T) {
	s := RunChaos(chaosParams(), InProcessBackends, 6, 3)
	h := string(s.HTML())
	if !strings.Contains(h, "<table>") || !strings.Contains(h, "Chaos soak") {
		t.Fatalf("HTML report malformed:\n%s", h)
	}
	for _, r := range s.Rows {
		if r.Outcome != ChaosOK && !strings.Contains(h, "-faults") {
			t.Fatal("non-ok rows must carry a repro command")
		}
	}
	if _, err := s.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosRowIsItsReproLine: a row's command line, run through the
// driver, fails as the row did, and its Repro line is that command.
func TestChaosRowIsItsReproLine(t *testing.T) {
	// A panic-proc row that is not ok: its plan is indexed by process
	// spawns, which the program fixes, so it fails the same way on every
	// schedule.
	var row ChaosRow
	for _, r := range RunChaos(chaosParams(), InProcessBackends, 10, 7).Rows {
		if strings.Contains(r.Spec, "panic-proc") && r.Outcome != ChaosOK {
			row = r
			break
		}
	}
	if row.Args == nil {
		t.Fatal("seed 7 gave no failing panic-proc row in 10 iterations")
	}
	if code := driver.Run("sumeuler", row.Args, io.Discard, io.Discard); code != 1 {
		t.Errorf("%s: exit %d, want 1", row.Repro(), code)
	}
	if _, err := driver.Exec("sumeuler", row.Args); err == nil {
		t.Errorf("%s: Exec succeeded, want %s", row.Repro(), row.Outcome)
	} else if class, _ := classifyChaos(0, err); class != row.Outcome {
		t.Errorf("%s: Exec failed as %s (%v), the row as %s", row.Repro(), class, err, row.Outcome)
	}
	want := append([]string{"go", "run", "./cmd/sumeuler"}, row.Args...)
	if got := strings.Fields(row.Repro()); !slices.Equal(got, want) {
		t.Errorf("Repro() %q splits to %q, want %q", row.Repro(), got, want)
	}
}

// TestChaosArgsArePlainShellWords: Repro joins a row's args unquoted,
// which a shell splits back to the args only while each is a plain
// word — on every backend, with that backend's own specs.
func TestChaosArgsArePlainShellWords(t *testing.T) {
	const plain = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.,:=/+"
	p := chaosParams()
	for i := uint64(0); i < 40; i++ {
		sub := splitmix64(i)
		for _, backend := range append(slices.Clone(InProcessBackends), ClusterBackends...) {
			spec := chaosSpec(backend, sub)
			args := chaosArgs(p, backend, spec)
			for _, a := range args {
				if a == "" || strings.Trim(a, plain) != "" {
					t.Fatalf("%s spec %q gives the arg %q, which a shell would not read as itself", backend, spec, a)
				}
			}
			if i := slices.Index(args, "-faults"); i < 0 || i+1 == len(args) || args[i+1] != spec {
				t.Fatalf("%s args %q do not hold -faults %s", backend, args, spec)
			}
		}
	}
}

// TestClassifyChaos pins the one classifier every backend's rows go
// through.
func TestClassifyChaos(t *testing.T) {
	death := &faults.ProcessDeathError{Rank: 1, PEs: []int{1}, Reason: "exit"}
	for _, tc := range []struct {
		name     string
		restarts int
		err      error
		want     string
	}{
		{"clean", 0, nil, ChaosOK},
		{"restarted", 1, nil, ChaosRecovered},
		{"cluster deadline", 0, &faults.DeadlockError{Backend: "cluster", Reason: "deadline"}, ChaosStructured},
		{"diagnosed deadlock", 0, &faults.DeadlockError{Backend: "nativeeden", Reason: "quiescence", Blocked: []faults.BlockedThread{{PE: 0, Reason: "channel", Chan: 3, Peer: 1}}}, ChaosDeadlock},
		{"undiagnosed deadlock", 0, &faults.DeadlockError{Backend: "native", Reason: "deadline"}, ChaosViolation},
		{"process death", 0, death, ChaosStructured},
		{"restarts exhausted", 2, &cluster.RestartsExhaustedError{Attempts: []cluster.Attempt{{Rank: 1, Reason: "exit"}}, Last: death}, ChaosStructured},
		{"integrity check", 0, &euler.CheckError{Sum: 1, Want: 2}, ChaosStructured},
		{"anonymous", 0, errors.New("boom"), ChaosViolation},
	} {
		if got, _ := classifyChaos(tc.restarts, tc.err); got != tc.want {
			t.Errorf("%s: classifyChaos(%d, %v) = %s, want %s", tc.name, tc.restarts, tc.err, got, tc.want)
		}
	}
}

func TestClusterChaosSmall(t *testing.T) {
	// A miniature of the CI cluster soak: a handful of supervised
	// 3-process runs with seed-derived rank faults. Every iteration must
	// end oracle-equal (clean or recovered) or structurally — violations
	// fail the test with their repro commands — and a failed attempt's
	// reason names what its fault did.
	p := Quick()
	p.SumEulerN = 4000
	s := RunChaos(p, ClusterBackends, 4, 11)
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(s.Rows))
	}
	if v := s.Violating(); len(v) > 0 {
		t.Fatalf("cluster chaos violations:\n%s", s.String())
	}
	if s.OK+s.Recovered+s.Structured != 4 {
		t.Fatalf("classes don't sum: %+v", s)
	}
	if s.Recovered > 0 && s.MaxRecoveryNS <= 0 {
		t.Fatalf("recovered %d runs but no recovery latency recorded", s.Recovered)
	}
	reason := map[string]string{"kill": "exit", "sever": "connection", "wedge": "heartbeat timeout"}
	for _, r := range s.Rows {
		if r.Backend != "cluster" || r.Mode == "" || r.WallNS <= 0 {
			t.Fatalf("row missing telemetry: %+v", r)
		}
		if !strings.Contains(r.Spec, r.Mode+"-rank=") {
			t.Fatalf("row %d is a %s row with spec %s", r.Iter, r.Mode, r.Spec)
		}
		for _, a := range r.Attempts {
			if !strings.HasPrefix(a.Reason, reason[r.Mode]) {
				t.Fatalf("row %d (%s): attempt %d failed for %q, want %q", r.Iter, r.Mode, a.Attempt, a.Reason, reason[r.Mode])
			}
		}
	}
}
