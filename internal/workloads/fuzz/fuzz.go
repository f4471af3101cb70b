// Package fuzz generates random GpH programs — DAGs of thunks with
// random work, allocation, sharing and spark annotations — for
// cross-runtime equivalence testing: the same program must produce the
// same value on a single core, on many cores, under lazy and eager
// black-holing, under pushing and stealing schedulers, and with local
// heaps or a parallel collector. Referential transparency makes this a
// strong whole-system correctness oracle.
package fuzz

import (
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/rts"
	"parhask/internal/sim"
)

// Node is one vertex of a generated program DAG.
type Node struct {
	// Burn and Alloc are the node's own work.
	Burn  int64
	Alloc int64
	// Deps are indices of earlier nodes whose values this node sums.
	Deps []int
	// Spark marks the node for a par annotation.
	Spark bool
}

// Program is a generated DAG; node values are defined bottom-up:
// value(i) = i + Σ value(dep).
type Program struct {
	Nodes []Node
}

// Generate builds a random program with n nodes from seed. Fan-in, work
// and spark density vary with the generator stream.
func Generate(seed uint64, n int) *Program {
	rng := sim.NewPRNG(seed)
	p := &Program{Nodes: make([]Node, n)}
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		nd.Burn = int64(rng.Intn(200_000))
		nd.Alloc = int64(rng.Intn(64 * 1024))
		if i > 0 {
			fanin := rng.Intn(3)
			for d := 0; d < fanin; d++ {
				nd.Deps = append(nd.Deps, rng.Intn(i))
			}
		}
		nd.Spark = rng.Intn(100) < 40
	}
	return p
}

// Expected computes the reference value of the program's final node
// (and transitively everything it needs) on the host, with no runtime.
func (p *Program) Expected() int64 {
	memo := make([]int64, len(p.Nodes))
	seen := make([]bool, len(p.Nodes))
	var eval func(i int) int64
	eval = func(i int) int64 {
		if seen[i] {
			return memo[i]
		}
		v := int64(i)
		for _, d := range p.Nodes[i].Deps {
			v += eval(d)
		}
		seen[i] = true
		memo[i] = v
		return v
	}
	// The program's result sums every sink (node with no dependents
	// would be fiddly to track, so we sum all nodes — same coverage).
	var total int64
	for i := range p.Nodes {
		total += eval(i)
	}
	return total
}

// Body returns the program as a runtime-agnostic main function: it
// builds the thunk DAG, sparks the annotated nodes, forces everything
// and returns the sum of all node values. The same body runs on the
// virtual-time simulation and on the native runtime.
func (p *Program) Body() exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		thunks := make([]*graph.Thunk, len(p.Nodes))
		for i := range p.Nodes {
			i := i
			nd := &p.Nodes[i]
			thunks[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				v := int64(i)
				for _, d := range nd.Deps {
					v += c.Force(thunks[d]).(int64)
				}
				if nd.Alloc > 0 {
					c.Alloc(nd.Alloc)
				}
				if nd.Burn > 0 {
					c.Burn(nd.Burn)
				}
				return v
			})
		}
		for i := range p.Nodes {
			if p.Nodes[i].Spark {
				ctx.Par(thunks[i])
			}
		}
		var total int64
		for i := range thunks {
			total += ctx.Force(thunks[i]).(int64)
		}
		return total
	}
}

// Main is Body specialised to the simulated runtime, kept for the
// simulation call sites.
func (p *Program) Main() func(*rts.Ctx) graph.Value {
	body := p.Body()
	return func(ctx *rts.Ctx) graph.Value { return body(ctx) }
}
