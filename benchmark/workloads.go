package main

import (
	"fmt"

	"parhask/internal/cluster"
	"parhask/internal/exec"
	"parhask/internal/experiments"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/pe"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// sizes are the problem sizes of a run. fullSizes is the benchmark;
// bench_test.go shrinks them to smoke-test the harness in seconds.
type sizes struct {
	EulerN, EulerChunks int
	EulerWarmN          int // warm-up jobs use a smaller n: there is no data to page in
	ApspN               int
	TorusN              int
	RingN, Ring         int
	Serve               []shape
	// ServeTraceEvery: in a traced run every n-th request of a client
	// asks the server for its timeline.
	ServeTraceEvery int
	SetupReps       int
	// MemoGuard arms the cache check on the timed jobs (batch.go). It
	// compares wall-clock times, so the smoke test leaves it off.
	MemoGuard bool
	// Probe scales the iteration counts of the layer probes (1 = full).
	Probe float64
	// Fig1 is the scale of the simulated-figure probe.
	Fig1 experiments.Params
}

func fullSizes() sizes {
	return sizes{
		EulerN: 8000, EulerChunks: 160, EulerWarmN: 2000,
		ApspN:  300,
		TorusN: 384,
		RingN:  128, Ring: 32,
		Serve:           fullShapes(),
		ServeTraceEvery: 50,
		SetupReps:       5,
		MemoGuard:       true,
		Probe:           1,
		Fig1:            experiments.Quick(),
	}
}

// nopCtx satisfies the workloads' cost-accounting contexts for the
// sequential reference code: no virtual time, no heap model.
type nopCtx struct{}

func (nopCtx) Burn(int64)  {}
func (nopCtx) Alloc(int64) {}

// oracle is a job's check against the value computed in set-up.
type oracle struct {
	what string
	ok   func(graph.Value) bool
}

// runNative is one job on the GpH work-stealing runtime.
func runNative(sp *spanRec, parent, id, workers int, traced bool, build func() exec.Program, o oracle) (jobOut, error) {
	b := sp.begin(parent, id, "build_program", "workloads")
	prog := build()
	sp.end(b)
	cfg := native.NewConfig(workers)
	cfg.EventLog = traced
	r := sp.begin(parent, id, "native.Run", "native")
	res, err := native.Run(cfg, prog)
	sp.end(r)
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{native: res, runSpan: r, timeline: res.Trace(), tlLayer: "native"}, o.check(sp, parent, id, res.Value)
}

// runEden is one job on the in-process native Eden runtime.
func runEden(sp *spanRec, parent, id, pes int, traced bool, build func() (pe.Program, error), o oracle) (jobOut, error) {
	b := sp.begin(parent, id, "build_program", "workloads")
	prog, err := build()
	sp.end(b)
	if err != nil {
		return jobOut{}, err
	}
	cfg := nativeeden.NewConfig(pes)
	cfg.EventLog = traced
	r := sp.begin(parent, id, "nativeeden.Run", "nativeeden")
	res, err := nativeeden.Run(cfg, prog)
	sp.end(r)
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{eden: res, runSpan: r, timeline: res.Trace(), tlLayer: "nativeeden"}, o.check(sp, parent, id, res.Value)
}

// runCluster is one job on a freshly launched multi-process cluster.
func runCluster(sp *spanRec, parent, id int, cfg cluster.Config, o oracle) (jobOut, error) {
	r := sp.begin(parent, id, "cluster.Run", "cluster")
	res, err := cluster.Run(cfg)
	sp.end(r)
	if err != nil {
		return jobOut{}, err
	}
	tl, err := res.TraceLog()
	if err != nil {
		return jobOut{}, fmt.Errorf("cluster timeline: %w", err)
	}
	return jobOut{cluster: res, runSpan: r, timeline: tl, tlLayer: "nativeeden"}, o.check(sp, parent, id, res.Value)
}

// check compares a job's value with the oracle, in its own span.
func (o oracle) check(sp *spanRec, parent, id int, v graph.Value) error {
	c := sp.begin(parent, id, "oracle_check", "workloads")
	good := o.ok(v)
	sp.end(c)
	if !good {
		return fmt.Errorf("%s differs from the sequential oracle", o.what)
	}
	return nil
}

// reference is one job of plain sequential Go, checked like any other.
func reference(sp *spanRec, parent, id int, compute func() graph.Value, o oracle) (jobOut, error) {
	s := sp.begin(parent, id, "reference", "workloads")
	v := compute()
	sp.end(s)
	return jobOut{}, o.check(sp, parent, id, v)
}

// units is the worker/PE count of a phase.
func units(ph phase, full int) int {
	if ph == phOne {
		return 1
	}
	return full
}

// jobFn builds, runs and oracle-checks one job of a set-up workload
// (inputs generated, oracle computed, warm-up done). traced turns the
// layer's event log on. It records its layer-boundary spans under parent;
// a returned error is a failed job.
type jobFn func(ph phase, traced bool, sp *spanRec, parent, id int) (jobOut, error)

// warmedUp makes the timed job from mk(seed) after running one
// discarded job of each phase on mk of *another* seed: the runtimes, the
// heap and the code are warm, but a cache keyed on the inputs is not, so
// the memo guard still sees the first timed job pay for it.
func warmedUp(seed uint64, mk func(seed uint64) (jobFn, error)) (jobFn, error) {
	other, err := mk(seed + 0x5eed)
	if err != nil {
		return nil, err
	}
	for _, ph := range []phase{phRef, phOne, phFull} {
		if _, err := other(ph, false, nil, 0, 0); err != nil {
			return nil, fmt.Errorf("warm-up %s job: %w", phaseNames[ph], err)
		}
	}
	return mk(seed)
}

func repeat(ph phase, n int) []phase {
	out := make([]phase, n)
	for i := range out {
		out[i] = ph
	}
	return out
}

func cycleOf(ref, one, full int) []phase {
	return append(append(repeat(phRef, ref), repeat(phOne, one)...), repeat(phFull, full)...)
}

var gphSumEuler = &batchWorkload{
	name: "gph_sumeuler", layer: "native",
	// ref, 2 full, one, 2 full: ~7.7 s a cycle on the 2-core host.
	cycle: []phase{phRef, phFull, phFull, phOne, phFull, phFull},
	setup: func(rc *runCtx, seed uint64) (jobFn, error) {
		// sumEuler has no input data; the "other inputs" of the warm-up
		// are a smaller n, which also keeps set-up short.
		mk := func(n int) jobFn {
			chunks := rc.sz.EulerChunks
			want := euler.SumTotientSieve(n) // linear sieve: shares no code with the φ kernels below
			o := oracle{"sumEuler", func(v graph.Value) bool { got, ok := v.(int64); return ok && got == want }}
			return func(ph phase, traced bool, sp *spanRec, parent, id int) (jobOut, error) {
				if ph == phRef {
					return reference(sp, parent, id, func() graph.Value {
						sum := euler.SumRangeDirect(1, n)
						if euler.SequentialCheck(nopCtx{}, n) != sum { // the program's own self-check
							return nil
						}
						return sum
					}, o)
				}
				return runNative(sp, parent, id, units(ph, rc.p), traced,
					func() exec.Program { return euler.Program(n, chunks, 0, true) }, o)
			}
		}
		return warmedUp(seed, func(s uint64) (jobFn, error) {
			if s != seed {
				return mk(rc.sz.EulerWarmN), nil
			}
			return mk(rc.sz.EulerN), nil
		})
	},
}

var gphAPSP = &batchWorkload{
	name: "gph_apsp", layer: "native",
	cycle: cycleOf(2, 4, 10),
	setup: func(rc *runCtx, seed uint64) (jobFn, error) {
		return warmedUp(seed, func(seed uint64) (jobFn, error) {
			g := apsp.RandomGraph(rc.sz.ApspN, seed, 100, 60)
			want := apsp.FloydWarshall(g)
			o := oracle{"APSP", func(v graph.Value) bool { got, ok := v.(apsp.Graph); return ok && apsp.Equal(got, want) }}
			return func(ph phase, traced bool, sp *spanRec, parent, id int) (jobOut, error) {
				if ph == phRef {
					return reference(sp, parent, id, func() graph.Value { return apsp.FloydWarshall(g) }, o)
				}
				return runNative(sp, parent, id, units(ph, rc.p), traced,
					func() exec.Program { return apsp.Program(g, 0) }, o)
			}, nil
		})
	},
}

var edenTorus = &batchWorkload{
	name: "eden_torus", layer: "nativeeden",
	cycle: cycleOf(2, 4, 10),
	setup: func(rc *runCtx, seed uint64) (jobFn, error) {
		return warmedUp(seed, func(seed uint64) (jobFn, error) {
			a, b := matmul.Random(rc.sz.TorusN, seed), matmul.Random(rc.sz.TorusN, seed+1)
			want := matmul.MulOracle(a, b)
			// Cannon sums each cell in another order than the oracle.
			o := oracle{"Cannon matmul", func(v graph.Value) bool { got, ok := v.(matmul.Mat); return ok && matmul.Equal(got, want, 1e-9) }}
			return func(ph phase, traced bool, sp *spanRec, parent, id int) (jobOut, error) {
				if ph == phRef {
					return reference(sp, parent, id, func() graph.Value { return matmul.MulOracle(a, b) }, o)
				}
				// P+1 PEs: the root's PE mostly waits, as in the paper's set-up.
				return runEden(sp, parent, id, units(ph, rc.p+1), traced,
					func() (pe.Program, error) { return matmul.EdenCannonProgram(a, b, 4, 0), nil }, o)
			}, nil
		})
	},
}

var clusterRing = &batchWorkload{
	name: "cluster_ring", layer: "cluster",
	cycle: cycleOf(4, 4, 12),
	setup: func(rc *runCtx, seed uint64) (jobFn, error) {
		return warmedUp(seed, func(seed uint64) (jobFn, error) {
			spec := ringSpec(rc.sz, seed)
			prog, check, err := cluster.BuildProgram(spec)
			if err != nil {
				return nil, err
			}
			// The spec's own check recomputes Floyd–Warshall on every call;
			// run it once here and compare later results with its subject.
			first, err := nativeeden.Run(nativeeden.NewConfig(4), prog)
			if err != nil {
				return nil, err
			}
			if err := check(first.Value); err != nil {
				return nil, err
			}
			want := apsp.Clone(first.Value.(apsp.Graph))
			o := oracle{"ring APSP", func(v graph.Value) bool { got, ok := v.(apsp.Graph); return ok && apsp.Equal(got, want) }}
			return func(ph phase, traced bool, sp *spanRec, parent, id int) (jobOut, error) {
				if ph == phRef {
					// The same program, in one process: what the job costs
					// before any codec, socket or process launch.
					_, err := runEden(sp, parent, id, 4, false, func() (pe.Program, error) {
						p, _, err := cluster.BuildProgram(spec)
						return p, err
					}, o)
					return jobOut{}, err
				}
				cfg := cluster.Config{Procs: 2, PerProc: 2, Transport: "unix", Spec: spec, EventLog: traced}
				if ph == phOne {
					cfg.Procs, cfg.PerProc = 1, 1
				}
				return runCluster(sp, parent, id, cfg, o)
			}, nil
		})
	},
}

func ringSpec(sz sizes, seed uint64) string {
	return fmt.Sprintf("apsp?n=%d&ring=%d&seed=%d", sz.RingN, sz.Ring, seed%1_000_000_000)
}
