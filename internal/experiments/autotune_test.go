package experiments

import "testing"

// TestAutotuneSweepSmoke runs the self-tuning sweep at quick scale and
// checks its machine-independent shape: exact results, grains inside
// their bounds, and a well-formed decision trace on every auto row.
func TestAutotuneSweepSmoke(t *testing.T) {
	s := RunAutotuneSweep(Quick())
	if bad := s.CheckShape(); len(bad) > 0 {
		t.Fatalf("shape violations: %v", bad)
	}
	if len(s.Rows) != 2*len(autotuneWorkerCounts)*3 {
		t.Fatalf("expected hand+auto rows for 3 workloads at %v workers, got %d rows",
			autotuneWorkerCounts, len(s.Rows))
	}
	t.Log("\n" + s.String())
}
