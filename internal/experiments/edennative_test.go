package experiments

import "testing"

func TestEdenNativeSweepSmoke(t *testing.T) {
	s := RunEdenNativeSweep(Quick())
	if bad := s.CheckShape(); len(bad) > 0 {
		t.Fatalf("shape violations: %v", bad)
	}
	// Both runtimes must appear at every parallelism degree.
	byRuntime := map[string]int{}
	for _, r := range s.Rows {
		byRuntime[r.Runtime]++
	}
	if byRuntime["gph-native"] == 0 || byRuntime["eden-native"] == 0 ||
		byRuntime["gph-native"] != byRuntime["eden-native"] {
		t.Fatalf("unbalanced head-to-head rows: %v", byRuntime)
	}
	t.Log("\n" + s.String())
}

func TestEdenNativeTimelineSmoke(t *testing.T) {
	e, err := EdenNativeTimeline(Quick(), "sumeuler", 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Trace == nil {
		t.Fatal("timeline run did not record events")
	}
	if len(e.Trace.Agents()) != 3 {
		t.Fatalf("trace has %d agents, want 3", len(e.Trace.Agents()))
	}
	if e.Rendered == "" || e.Summary == "" {
		t.Fatal("empty rendering")
	}
}
