package native

import (
	"strings"
	"testing"

	"parhask/internal/trace"
	"parhask/internal/workloads/euler"
)

func TestNativePerWorkerStatsSumToTotals(t *testing.T) {
	// The aggregate must be exactly the per-worker breakdown: a batch
	// run's every thread is a worker.
	const n, chunks = 3000, 60
	res := run(t, NewConfig(4), euler.Program(n, chunks, 0, true))
	if len(res.PerWorker) != res.Workers {
		t.Fatalf("PerWorker rows = %d, want %d", len(res.PerWorker), res.Workers)
	}
	var sum Stats
	for _, w := range res.PerWorker {
		sum.Add(w)
	}
	if sum != res.Stats {
		t.Fatalf("per-worker sum %+v != aggregate %+v", sum, res.Stats)
	}
	// Spark conservation: every created spark is converted, fizzled, or
	// left in some pool at the end.
	if got := res.Stats.SparksConverted + res.Stats.SparksFizzled + res.Stats.SparksLeftover; got != res.Stats.SparksCreated {
		t.Fatalf("converted+fizzled+leftover = %d, want created = %d", got, res.Stats.SparksCreated)
	}
}

func TestNativeEventlogTimeline(t *testing.T) {
	// End-to-end: with the eventlog on, a run reduces to a per-worker
	// wall-clock timeline whose span is the measured wall time.
	const n, chunks, workers = 3000, 60, 4
	cfg := NewConfig(workers)
	cfg.EventLog = true
	res := run(t, cfg, euler.Program(n, chunks, 0, true))
	if res.Events == nil {
		t.Fatal("Events is nil with EventLog enabled")
	}
	tl := res.Trace()
	if tl == nil {
		t.Fatal("Trace() is nil with EventLog enabled")
	}
	agents := tl.Agents()
	if len(agents) != workers {
		t.Fatalf("timeline agents = %d, want %d", len(agents), workers)
	}
	if tl.End() != res.WallNS {
		t.Fatalf("timeline end = %d, want wall time %d", tl.End(), res.WallNS)
	}
	// Worker 0 ran main, so it must show real Run time.
	if agents[0].TimeIn(trace.Run) <= 0 {
		t.Fatal("worker 0 recorded no Run time")
	}
	rendered := tl.Render(80)
	if !strings.Contains(rendered, "w0") || !strings.Contains(rendered, "w3") {
		t.Fatalf("rendered timeline missing worker rows:\n%s", rendered)
	}
	rep := res.Report()
	if rep.EventsLogged <= 0 {
		t.Fatalf("EventsLogged = %d, want > 0", rep.EventsLogged)
	}
	if rep.Workers != workers || rep.WallNS != res.WallNS {
		t.Fatalf("report header %+v disagrees with result", rep)
	}
}

func TestNativeEventlogDisabledByDefault(t *testing.T) {
	res := run(t, NewConfig(2), euler.Program(500, 10, 0, true))
	if res.Events != nil {
		t.Fatal("Events must be nil when EventLog is off")
	}
	if res.Trace() != nil {
		t.Fatal("Trace() must be nil when EventLog is off")
	}
	rep := res.Report()
	if rep.EventsLogged != 0 || rep.EventsDropped != 0 {
		t.Fatalf("disabled run reports events: %+v", rep)
	}
}
