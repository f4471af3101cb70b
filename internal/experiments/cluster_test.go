package experiments

import (
	"os"
	"testing"

	"parhask/internal/cluster"
)

// TestMain lets the chaos-under-cluster soak re-execute this test
// binary as its worker processes.
func TestMain(m *testing.M) {
	cluster.MaybeWorker()
	os.Exit(m.Run())
}

func TestClusterChaosSmall(t *testing.T) {
	// A miniature of the CI soak: a handful of supervised 3-process runs
	// with seed-derived rank faults. Every iteration must end oracle-equal
	// (clean or recovered) or structurally — violations fail the test with
	// their repro commands.
	p := Quick()
	p.SumEulerN = 4000
	s := RunClusterChaos(p, 4, 11, "tcp", 2, true)
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
	for _, r := range s.Rows {
		if r.Mode == "" || r.Spec == "" || r.WallNS <= 0 {
			t.Fatalf("row missing telemetry: %+v", r)
		}
	}
}
