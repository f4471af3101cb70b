package experiments

import "testing"

// TestMeasureMetricsOverheadShape: the comparison runs and produces
// sane fields. It asserts no percentage — a test must not assert
// wall-clock time; the number is the benchmark's
// metrics.enabled_overhead_x row.
func TestMeasureMetricsOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	b := MeasureMetricsOverhead()
	if b.DisabledNS <= 0 || b.EnabledNS <= 0 {
		t.Fatalf("bench fields: %+v", b)
	}
}

// TestPctRankMatchesHistogramConvention pins the client-side rank
// convention to the histogram's (ceil(q*N)), so the telemetry
// cross-check compares the same order statistic on both sides.
func TestPctRankMatchesHistogramConvention(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	cases := []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}}
	for _, c := range cases {
		if got := pctRank(sorted, c.q); got != c.want {
			t.Errorf("pctRank(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := pctRank(nil, 0.5); got != 0 {
		t.Errorf("pctRank(empty) = %d", got)
	}
}
