package experiments

import (
	"fmt"

	"parhask/internal/cost"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/trace"
	"parhask/internal/workloads"
)

// instance builds one of the paper's three workloads at the experiment
// scale from the workload table — the entry the command lines run, so a
// timeline or a chaos row and the command that reproduces it are the
// same program. ring sizes the APSP Eden ring (0 where no Eden form
// will run).
func (p Params) instance(workload string, ring int) (*workloads.Instance, error) {
	args, ok := map[string]workloads.Args{
		"sumeuler": workloads.Args{}.With("n", uint64(p.SumEulerN)).With("chunks", uint64(p.SumEulerChunks)),
		"matmul":   workloads.Args{}.With("n", uint64(p.MatMulN)).With("block", uint64(p.MatMulBlock)).With("q", 3).With("seed", 1),
		"apsp": workloads.Args{}.With("n", uint64(p.APSPNodes)).With("ring", uint64(ring)).
			With("seed", 42).With("maxw", 100).With("density", 60),
	}[workload]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q (want sumeuler, matmul or apsp)", workload)
	}
	e, err := workloads.Lookup(workload)
	if err != nil {
		return nil, err
	}
	return e.New(args)
}

// injector arms p's fault plan (nil without one).
func (p Params) injector() (*faults.Injector, error) {
	if p.FaultSpec == "" {
		return nil, nil
	}
	plan, err := faults.Parse(p.FaultSpec)
	if err != nil {
		return nil, err
	}
	return faults.NewInjector(plan), nil
}

// timeline turns one finished native run into the entry the renderers
// print. A successful run is verified against the workload's oracle
// first. A failed run still carries its flushed event rings: its
// partial timeline is returned alongside the error, so post-mortems
// (tracedump under fault injection) can see what happened up to the
// failure; without a timeline only the error comes back.
func (p Params) timeline(label, shape string, inst *workloads.Instance,
	value graph.Value, wallNS int64, tl *trace.Log, runErr error) (TraceEntry, error) {
	name := fmt.Sprintf("%s, %s (wall clock)", label, shape)
	if runErr != nil {
		if tl == nil {
			return TraceEntry{}, runErr
		}
		name = fmt.Sprintf("%s (FAILED, partial timeline): %v", label, runErr)
	} else if _, err := inst.Check(value); err != nil {
		return TraceEntry{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	return TraceEntry{
		Name: name, Elapsed: wallNS, Trace: tl,
		Rendered: tl.Render(p.TraceWidth), Summary: tl.Summary(),
	}, runErr
}

// NativeTimeline runs one workload on the native runtime with the
// wall-clock eventlog enabled and reduces it to a trace — the real-
// hardware counterpart of the Fig. 2 / Fig. 4 EdenTV diagrams. Unlike
// the simulated figures the timeline's shape is machine-dependent (see
// results/README.md).
func NativeTimeline(p Params, workload string, workers int, eager bool) (TraceEntry, error) {
	inst, err := p.instance(workload, 0)
	if err != nil {
		return TraceEntry{}, err
	}
	prog, err := inst.GpH()
	if err != nil {
		return TraceEntry{}, err
	}
	cfg := native.NewConfig(workers)
	cfg.EagerBlackholing = eager
	cfg.EventLog = true
	cfg.Deadline = p.Deadline
	if cfg.Faults, err = p.injector(); err != nil {
		return TraceEntry{}, err
	}
	res, runErr := native.Run(cfg, prog)
	if res == nil {
		return TraceEntry{}, runErr
	}
	bh := "lazy"
	if eager {
		bh = "eager"
	}
	return p.timeline("native "+workload, fmt.Sprintf("%d workers, %s blackholing", res.Workers, bh),
		inst, res.Value, res.WallNS, res.Trace(), runErr)
}

// EdenNativeTimeline runs one workload on the native Eden backend with
// the eventlog enabled and reduces it to a per-PE wall-clock trace —
// the EdenTV diagram of the real run, with communication rendered as
// the Comm activity the simulator's figures use.
func EdenNativeTimeline(p Params, workload string, pes int) (TraceEntry, error) {
	cfg := nativeeden.NewConfig(pes)
	cfg.EventLog = true
	cfg.Deadline = p.Deadline
	inst, err := p.instance(workload, cfg.PEs)
	if err != nil {
		return TraceEntry{}, err
	}
	prog, err := inst.Eden(cost.Model{})
	if err != nil {
		return TraceEntry{}, err
	}
	if cfg.Faults, err = p.injector(); err != nil {
		return TraceEntry{}, err
	}
	res, runErr := nativeeden.Run(cfg, prog)
	if res == nil {
		return TraceEntry{}, runErr
	}
	return p.timeline("eden-native "+workload, fmt.Sprintf("%d PEs", res.PEs),
		inst, res.Value, res.WallNS, res.Trace(), runErr)
}
