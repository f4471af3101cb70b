package experiments

import "testing"

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
