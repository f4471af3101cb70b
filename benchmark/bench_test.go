package main

import (
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/serve"
)

func TestMain(m *testing.M) {
	// cluster_ring and the cluster probe re-execute the test binary as
	// their worker processes.
	cluster.MaybeWorker()
	os.Exit(m.Run())
}

// toySizes shrink every workload and probe until the whole suite, traced
// and untraced, is a few seconds: the test is about the harness — names,
// units, oracles, spans, clean shutdown — never about how long anything took.
func toySizes() sizes {
	fig1 := fullSizes().Fig1
	fig1.SumEulerN, fig1.SumEulerChunks = 120, 8
	return sizes{
		EulerN: 300, EulerChunks: 12, EulerWarmN: 100,
		ApspN:  24,
		TorusN: 32,
		RingN:  16, Ring: 4,
		Serve: []shape{
			{"sumeuler_gph", serve.JobRequest{Workload: "sumeuler", N: 100}},
			{"sumeuler_eden_memo", serve.JobRequest{Workload: "sumeuler", N: 60, Backend: "eden"}},
			{"matmul_gph", serve.JobRequest{Workload: "matmul", N: 8}},
			{"matmul_eden", serve.JobRequest{Workload: "matmul", N: 8, Backend: "eden"}},
			{"apsp_gph", serve.JobRequest{Workload: "apsp", N: 8}},
			{"apsp_eden", serve.JobRequest{Workload: "apsp", N: 8, Backend: "eden"}},
			{"fuzz_gph", serve.JobRequest{Workload: "fuzz", N: 20}},
			{"mandel_gph", serve.JobRequest{Workload: "mandel", Width: 8, Height: 6}},
			{"mandel_eden", serve.JobRequest{Workload: "mandel", Width: 8, Height: 6, Backend: "eden"}},
		},
		ServeTraceEvery: 3,
		SetupReps:       2,
		Probe:           0.001,
		Fig1:            fig1,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rc := &runCtx{spec: spec, seed: 3, seconds: 0.1, traced: traced, p: parallelism(), sz: toySizes()}
			t0 := time.Now()
			rep, err := runOne(rc, w.Name)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			t.Logf("%s traced=%v: %d jobs in %v", w.Name, traced, rep.Attempted, time.Since(t0).Round(time.Millisecond))
			if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v", w.Name, traced, rep.Attempted, rep.Failed, rep.Correct)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, m.Name)
				case v.Unit == "" || v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.Name, m.Name, v.Value)
				}
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				}
			}
			if !traced {
				continue
			}
			checkShares(t, w.Name, rep)
			checkSpans(t, w.Name, rc.spans.finish())
		}
	}
	// Pool.Close, Resident.Close, Server.Close and cluster.Run have all
	// returned by now; what they started must be gone, give or take the
	// moment a goroutine needs to unwind.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the runs; leaked:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// checkShares: the per-agent state shares of the runtime a workload runs
// on partition the agents' time.
func checkShares(t *testing.T, workload string, rep *report) {
	sumOf := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += rep.Metrics[n].Value
		}
		return s
	}
	native := sumOf("native.run_share", "native.runnable_share", "native.blocked_share", "native.idle_share")
	eden := sumOf("nativeeden.run_share", "nativeeden.comm_share", "nativeeden.blocked_share", "nativeeden.idle_share")
	wantNative := workload == "gph_sumeuler" || workload == "gph_apsp" || workload == "serve_mix"
	wantEden := workload == "eden_torus" || workload == "cluster_ring" || workload == "serve_mix"
	for _, c := range []struct {
		layer string
		sum   float64
		want  bool
	}{{"native", native, wantNative}, {"nativeeden", eden, wantEden}} {
		if c.want && math.Abs(c.sum-1) > 0.02 {
			t.Errorf("%s: %s state shares sum to %.4f, want 1 ± 0.02", workload, c.layer, c.sum)
		}
		if !c.want && c.sum != 0 {
			t.Errorf("%s bypasses %s, yet its state shares sum to %.4f", workload, c.layer, c.sum)
		}
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", workload)
	}
	agents := 0
	for _, s := range spans {
		if s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID {
			t.Errorf("%s: span %d (%s) has unresolvable parent %d", workload, s.ID, s.Name, s.Parent)
			continue
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if p.ID != s.Parent || p.Job != s.Job {
				t.Errorf("%s: span %d (%s, job %d) hangs under span %d of job %d", workload, s.ID, s.Name, s.Job, p.ID, p.Job)
			}
			if p.Parent != 0 && spans[p.Parent-1].Parent != 0 {
				agents++ // depth ≥ 3: an agent or state band from a returned timeline
			}
		}
		if s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Errorf("%s: span %d (%s) [%d,%d] self %d", workload, s.ID, s.Name, s.StartNS, s.EndNS, s.SelfNS)
		}
	}
	if agents == 0 {
		t.Errorf("%s: no span came from a returned timeline", workload)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "job_s_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"5% slower", steady, scale(steady, 1.05), lower, "ok"},
		{"20% slower", steady, scale(steady, 1.20), lower, "worse"},
		{"20% faster", steady, scale(steady, 0.80), lower, "ok"},
		{"20% less throughput", steady, scale(steady, 0.80), higher, "worse"},
		{"20% more throughput", steady, scale(steady, 1.20), higher, "ok"},
		{"wide spread", steady, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, lower, "unresolved"},
		{"wide spread, all slower", steady, []float64{1.5, 2.0, 2.6, 1.7, 2.3}, lower, "worse"},
		{"wide spread, all faster", steady, []float64{0.3, 0.5, 0.7, 0.4, 0.6}, lower, "ok"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestMemoGuard: a workload whose later jobs are answered by a cache is
// refused; one whose first job merely stalled is flagged and stands.
func TestMemoGuard(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// slowFirst builds a workload whose job takes 15x as long on the calls
	// for which slow(instance, call) says so; every instance counts its own.
	slowFirst := func(slow func(inst, call int) bool) *batchWorkload {
		insts := 0
		return &batchWorkload{name: "fake", layer: "native", cycle: []phase{phFull},
			setup: func(*runCtx, uint64) (jobFn, error) {
				insts++
				inst, calls := insts, 0
				return func(phase, bool, *spanRec, int, int) (jobOut, error) {
					d := 20 * time.Millisecond
					if calls++; slow(inst, calls) {
						d *= 15
					}
					time.Sleep(d)
					return jobOut{}, nil
				}, nil
			}}
	}
	rc := &runCtx{spec: spec, seed: 1, seconds: 0.01, p: 1, sz: sizes{SetupReps: 1, MemoGuard: true}}

	cached := slowFirst(func(_, call int) bool { return call == 1 }) // every instance computes once, then looks up
	if _, err := runBatch(rc, cached); err == nil {
		t.Error("jobs answered from a cache were timed as compute")
	}
	stalled := slowFirst(func(inst, call int) bool { return inst == 1 && call == 1 }) // one stall, never again
	res, err := runBatch(rc, stalled)
	if err != nil {
		t.Errorf("a single stalled job failed the run: %v", err)
	} else if len(res.flags) == 0 {
		t.Error("a single stalled job was not flagged")
	}
}
