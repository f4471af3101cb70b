package experiments

import (
	"runtime/debug"
	"testing"

	"parhask/internal/native"
)

func TestParseGOGCList(t *testing.T) {
	got, err := ParseGOGCList("50, 100,off")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{50, 100, native.GCOff}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "0", "-5", "fast", "100;200"} {
		if _, err := ParseGOGCList(bad); err == nil {
			t.Errorf("ParseGOGCList(%q) accepted", bad)
		}
	}
}

func TestGOGCSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	before := debug.SetGCPercent(100)
	debug.SetGCPercent(before)

	settings := []int{100, native.GCOff}
	s := RunGOGCSweep(Quick(), settings)
	if bad := s.CheckShape(); len(bad) > 0 {
		t.Fatalf("shape violations: %v", bad)
	}
	// 2 workloads x 2 settings x 2 worker counts.
	if want := 2 * len(settings) * len(gogcWorkerCounts); len(s.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(s.Rows), want)
	}
	// The sweep must not leak its GC settings into the process.
	after := debug.SetGCPercent(before)
	if after != before {
		t.Fatalf("sweep leaked GOGC=%d, was %d", after, before)
	}
	t.Log("\n" + s.String())
}
