package cluster

import (
	"fmt"

	"parhask/internal/cost"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/workloads"
)

// A workload spec names an Eden program of the workload table plus its
// parameters: "apsp?n=128&ring=32&seed=1" (the grammar is
// workloads.ParseSpec's, and strict: unknown keys, non-integers,
// repeated keys and out-of-range values are errors). Both the
// coordinator and the workers build the program from the same spec
// string — the cluster's SPMD contract is that every process runs the
// same main.
//
// specDefaults lists the workloads a cluster builds and, for each, the
// values a spec may leave out. They are the cluster's own (test-sized
// problems, a sparse graph so the ring messages stay small), not the
// command lines': a CLI sends every parameter, so its cluster run is
// the instance its other runtimes run.
//
//	sumeuler?n=N&pechunks=C          — sum of totients 1..N, C chunks per PE
//	apsp?n=N&ring=R&seed=S           — all-pairs shortest paths, R ring nodes
//	                                   (&maxw=W&density=D: the graph generator's)
//	matmul?n=N&q=Q&seed=S            — Cannon q×q torus on N×N matrices
var specDefaults = map[string]workloads.Args{
	"sumeuler": workloads.Args{}.With("n", 2000).With("pechunks", 2),
	"apsp":     workloads.Args{}.With("n", 32).With("ring", 4).With("seed", 7).With("maxw", 40).With("density", 4),
	"matmul":   workloads.Args{}.With("n", 32).With("q", 2).With("seed", 1),
}

// specInstance parses and validates a spec down to the Eden topology
// fitting its arguments. No input is generated.
func specInstance(spec string) (*workloads.Instance, error) {
	e, args, err := workloads.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	def, ok := specDefaults[e.Name]
	if !ok {
		return nil, fmt.Errorf("cluster: %s is not a workload the cluster builds (see specDefaults)", e.Name)
	}
	inst, err := e.New(args.WithDefaults(def))
	if err == nil {
		err = inst.CanEden()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: spec %q: %w", spec, err)
	}
	return inst, nil
}

// BuildProgram builds the spec's Eden program and the check of the
// root's result against the sequential reference. The reference is
// computed inside the check, on its first call: every worker calls
// BuildProgram at startup and only the coordinator's side ever runs the
// check, so the workers never pay for a sequential O(n^3) run.
func BuildProgram(spec string) (pe.Program, func(graph.Value) error, error) {
	inst, err := specInstance(spec)
	if err != nil {
		return nil, nil, err
	}
	prog, err := inst.Eden(cost.Model{})
	if err != nil {
		return nil, nil, err
	}
	return prog, func(v graph.Value) error {
		_, err := inst.Check(v)
		return err
	}, nil
}
