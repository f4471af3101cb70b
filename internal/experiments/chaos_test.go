package experiments

import (
	"strings"
	"testing"
)

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
	s := RunChaosSoak(chaosParams(), 30, 42)
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
	a := RunChaosSoak(chaosParams(), 10, 7)
	b := RunChaosSoak(chaosParams(), 10, 7)
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
	s := RunChaosSoak(chaosParams(), 6, 3)
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
