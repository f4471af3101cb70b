package native

import (
	"strings"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
)

// awaitRun waits for a Run started in a goroutine, failing the test if
// it does not return — the regression mode of the panic-containment
// bugs is a hang (a blocked worker spinning on a thunk that will never
// be updated), so every test here runs under a watchdog.
func awaitRun(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run hung: a blocked worker never unwound after the panic")
		return nil
	}
}

func TestNativeMainPanicAbortsBlockedStealer(t *testing.T) {
	// Main claims thunk a (eager black-holing), sparks b — which forces
	// a — and panics once a stealer is provably blocked on a. Without
	// failing the job on the main-panic path the stealer spins on the
	// black hole forever and Run never returns.
	cfg := Config{Workers: 2, EagerBlackholing: true}
	var a *graph.Thunk
	a = exec.Thunk(func(c exec.Ctx) graph.Value {
		b := exec.NewThunk(c, func(c2 exec.Ctx) graph.Value { return c2.Force(a) })
		c.Par(b)
		stealer := c.(*Ctx).rt.workers[1]
		deadline := time.Now().Add(10 * time.Second)
		for stealer.blocked.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		panic("main boom")
	})
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, func(c exec.Ctx) graph.Value { return c.Force(a) })
		done <- err
	}()
	err := awaitRun(t, done)
	if err == nil || !strings.Contains(err.Error(), "main panicked: main boom") {
		t.Fatalf("err = %v, want the main panic", err)
	}
}
