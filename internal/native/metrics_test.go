package native

import (
	"strings"
	"sync"
	"testing"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/metrics"
	"parhask/internal/workloads/euler"
)

// TestPoolMetrics drives a metered pool and checks that the registry's
// live series agree with the pool's own accounting.
func TestPoolMetrics(t *testing.T) {
	reg := metrics.New()
	cfg := NewConfig(4)
	cfg.Metrics = reg
	p := NewPool(cfg)
	defer p.Close()

	const jobs = 12
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
				euler.Program(300, 8, 0, true))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if _, err := h.Wait(); err != nil {
				t.Errorf("job: %v", err)
			}
		}()
	}
	wg.Wait()

	cs := reg.Counters()
	if got := cs[`native_pool_jobs_total{outcome="ok"}`]; got != jobs {
		t.Fatalf("jobs_total ok = %v, want %d", got, jobs)
	}
	if got := cs[`native_pool_jobs_total{outcome="error"}`]; got != 0 {
		t.Fatalf("jobs_total error = %v, want 0", got)
	}
	if got := cs[`native_pool_job_seconds_count{outcome="ok"}`]; got != jobs {
		t.Fatalf("job_seconds count = %v, want %d", got, jobs)
	}
	if got := cs["native_pool_sched_wait_seconds_count"]; got != jobs {
		t.Fatalf("sched_wait count = %v, want %d", got, jobs)
	}
	if got := cs["native_pool_poisoned_claims_total"]; got != 0 {
		t.Fatalf("poisoned claims = %v on a healthy pool", got)
	}
	snap := p.Snapshot()
	if got := cs["native_pool_sparks_created_total"]; int64(got) > snap.SparksCreated {
		t.Fatalf("sparks_created series %v exceeds snapshot %d", got, snap.SparksCreated)
	}

	// The Prometheus exposition renders without error and carries the
	// derived quantile gauges.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`native_pool_jobs_total{outcome="ok"} 12`,
		"native_pool_job_seconds_p99",
		"native_pool_workers 4",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestPoolMetricsFaultSeries checks the fault plane feeds the
// injection counters and that a poisoned claim shows up.
func TestPoolMetricsFaultSeries(t *testing.T) {
	reg := metrics.New()
	cfg := NewConfig(2)
	cfg.Metrics = reg
	p := NewPool(cfg)
	defer p.Close()

	plan, err := faults.Parse("seed=7,panic-spark=0")
	if err != nil {
		t.Fatal(err)
	}
	// Park the main thread so a resident worker is guaranteed to
	// convert a spark (injection fires on worker-side conversion only).
	prog := func(ctx exec.Ctx) graph.Value {
		ts := make([]*graph.Thunk, 8)
		for i := range ts {
			i := i
			ts[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value { return int64(i) })
			ctx.Par(ts[i])
		}
		time.Sleep(100 * time.Millisecond)
		var sum int64
		for _, th := range ts {
			sum += ctx.Force(th).(int64)
		}
		return sum
	}
	h, err := p.Submit(JobConfig{Faults: faults.NewInjector(plan), Deadline: 30 * time.Second}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err == nil {
		t.Fatal("fault-injected job succeeded")
	}
	cs := reg.Counters()
	if got := cs["native_pool_fault_panics_total"]; got < 1 {
		t.Fatalf("fault_panics = %v, want >= 1", got)
	}
	if got := cs[`native_pool_jobs_total{outcome="error"}`]; got != 1 {
		t.Fatalf("jobs_total error = %v, want 1", got)
	}
}

// TestPoolJobTraceRings: a traced job's private eventlog has one main
// ring plus one ring per worker, carries the TraceMark, and records the
// converting workers' run brackets so the cross-worker timeline of one
// request is reconstructible.
func TestPoolJobTraceRings(t *testing.T) {
	p := NewPool(NewConfig(4))
	defer p.Close()

	h, err := p.Submit(JobConfig{
		EventLog: true,
		TraceID:  42,
		Deadline: 30 * time.Second,
	}, workerSparks(24))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == nil {
		t.Fatal("traced job has no eventlog")
	}
	if got, want := res.Events.Workers(), 1+p.Workers(); got != want {
		t.Fatalf("ring count = %d, want %d (main + workers)", got, want)
	}
	main := res.Events.Events(0)
	if len(main) == 0 || main[0].Type != eventlog.TraceMark || main[0].Arg != 42 {
		t.Fatalf("ring 0 does not start with TraceMark(42): %+v", main[:min(3, len(main))])
	}
	// The job's sparks ran on the resident workers, so the worker rings
	// must carry their convert/run brackets ("no worker ever converted"
	// means attribution is broken).
	var converted, runBegins int
	for w := 1; w < res.Events.Workers(); w++ {
		for _, e := range res.Events.Events(w) {
			switch e.Type {
			case eventlog.SparkConvert:
				converted++
			case eventlog.RunBegin:
				runBegins++
			}
		}
	}
	if converted == 0 || runBegins == 0 {
		t.Fatalf("no worker-ring activity: converts=%d runs=%d", converted, runBegins)
	}
	// And the rings reduce to a per-agent timeline via the dump path,
	// exactly as tracedump -job will render them.
	agents := make([]string, res.Events.Workers())
	agents[0] = "main"
	for i := 1; i < len(agents); i++ {
		agents[i] = "w" + string(rune('0'+i-1))
	}
	d := res.Events.Dump(agents)
	rl, err := d.Log()
	if err != nil {
		t.Fatal(err)
	}
	tl := rl.TraceAgents(d.Agents)
	if len(tl.Agents()) != len(agents) {
		t.Fatalf("trace agents = %d, want %d", len(tl.Agents()), len(agents))
	}
}
