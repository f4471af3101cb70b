package apsp

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// thunkBuildAlloc is the heap charged per lattice thunk built by the
// GpH program's main thread.
const thunkBuildAlloc = 40

// Program is the runtime-agnostic GpH APSP program. It builds the
// Floyd–Warshall thunk lattice — row i after stage k is a thunk
// depending on row i and the pivot row k after stage k-1 — and sparks an
// evaluation for each (final) row in advance, relying on the runtime
// system to synchronise the concurrent evaluations of the shared pivot
// thunks (§V). Under lazy black-holing those shared pivot chains are
// evaluated repeatedly by every thread that reaches them inside the
// marking window; under eager black-holing threads block on them instead
// and a pipeline forms. The shared pivots make this the showcase for the
// two policies, in virtual time and on real cores alike.
func Program(g Graph, minPlusCost int64) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		rows := lattice(ctx, g, minPlusCost)
		strategies.ParListWHNF(ctx, rows)
		out := make(Graph, len(rows))
		for i, t := range rows {
			out[i] = *ctx.Force(t).(*[]int32)
		}
		return out
	}
}

// stage is what every node of one Floyd–Warshall stage shares: k, the
// charge rate and row k after stage k-1.
type stage struct {
	k     int
	cost  int64
	pivot *graph.Thunk
}

// node is one lattice node, row i after stage st.k: its thunk, built in
// place, and what the thunk's computation reads — the stage and ri, row
// i after stage st.k-1. A node is one 72-byte slab entry; its value is
// a *[]int32. Under eager claims that is a row header its chain shares:
// the input copy's up to the chain's pivot stage, the fresh row's from
// there on. Under lazy black-holing each evaluation returns a fresh one.
type node struct {
	t  graph.Thunk
	st *stage
	ri *graph.Thunk
}

// lattice builds Program's thunk lattice over a per-job copy of g and
// returns the final rows, whose values are *[]int32. Every node shares
// one trampoline, evalNode, and lives in one slab per job, so building a
// node allocates nothing.
//
// The slab is chain-major, in the order the lattice is evaluated:
// forcing row i after stage k demands row i after stages 0, 1, …, k-1
// in turn, so each chain's nodes are consecutive and an evaluation walks
// memory in order. (Slabs per stage, filled stage by stage, put
// consecutive evaluations n nodes apart.)
//
// Each node owns the row it reads unless that row is a pivot: row k
// after stage k-1 is read by all n nodes of stage k, every other row by
// exactly one node (the same row at the next stage), and the final rows
// only by the caller. So when the forcing context claims eagerly — one
// evaluator per thunk — node (i, k), i ≠ k, updates its row in place
// and returns the row header it was given, and a job allocates 2n rows
// instead of n². Node (k, k) copies into a fresh row, because stage k
// still reads the pivot it was given; under lazy black-holing every
// node copies, because duplicate evaluators would race on a shared row.
// The charges are UpdateRow's either way: the simulator models GHC's
// immutable rows.
func lattice(ctx exec.Ctx, g Graph, minPlusCost int64) []*graph.Thunk {
	n := len(g)
	ctx.Alloc(Bytes(n)) // the input adjacency matrix
	stages := make([]stage, n)
	for k := range stages {
		stages[k].k, stages[k].cost = k, minPlusCost
	}
	inputs := make(Graph, n) // each chain's row header until its pivot stage
	nodes := make([]node, n*n)
	rows := make([]*graph.Thunk, n)
	for i := range rows {
		inputs[i] = append([]int32(nil), g[i]...)
		ri := graph.NewValue(&inputs[i])
		chain := nodes[i*n : (i+1)*n]
		for k := range chain {
			if k == i {
				stages[k].pivot = ri
			}
			nd := &chain[k]
			nd.st, nd.ri = &stages[k], ri
			nd.t.Init(evalNode, nd)
			ri = &nd.t
		}
		ctx.Alloc(int64(n) * thunkBuildAlloc)
		rows[i] = ri
	}
	return rows
}

// evalNode is the graph.AdaptFn of every lattice node.
func evalNode(c graph.Context, payload any) graph.Value {
	nd := payload.(*node)
	st := nd.st
	pk := *graph.Force(c, st.pivot).(*[]int32)
	r := graph.Force(c, nd.ri).(*[]int32)
	if c.EagerBlackholing() && nd.ri != st.pivot {
		updateRow(c, st.cost, *r, *r, pk, st.k)
		return r
	}
	out := UpdateRow(c, st.cost, *r, pk, st.k)
	return &out
}

// GpHProgram is Program specialised to the simulated runtime, kept for
// the simulation call sites.
func GpHProgram(g Graph, minPlusCost int64) func(*rts.Ctx) graph.Value {
	p := Program(g, minPlusCost)
	return func(ctx *rts.Ctx) graph.Value { return p(ctx) }
}

// SeqProgram runs Floyd–Warshall sequentially with cost accounting.
func SeqProgram(g Graph, minPlusCost int64) func(*rts.Ctx) graph.Value {
	n := len(g)
	return func(ctx *rts.Ctx) graph.Value {
		ctx.Alloc(Bytes(n))
		d := Clone(g)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				UpdateRowInPlace(ctx, minPlusCost, d[i], d[k], k)
			}
		}
		return d
	}
}

// PackedSize implements eden.Sized: a Graph packs like a [][]int32 —
// one word per row header plus 4 bytes per distance. Without this the
// named type fell through to SizeOfChecked's old one-word default, so
// the row blocks the ring nodes returned were charged 16 bytes while
// the copier shipped every row.
func (g Graph) PackedSize() int64 {
	var n int64 = 16
	for _, r := range g {
		n += int64(4*len(r)) + 16
	}
	return n
}

// DeepCopy implements eden.Sized.
func (g Graph) DeepCopy() (graph.Value, error) { return eden.CloneRows(g), nil }

// ringInput is the initial payload of one ring process: its block of
// rows.
type ringInput struct {
	Lo   int
	Rows Graph
}

// PackedSize implements eden.Sized.
func (ri ringInput) PackedSize() int64 {
	var n int64 = 32
	for _, r := range ri.Rows {
		n += int64(4*len(r)) + 16
	}
	return n
}

// DeepCopy implements eden.Sized.
func (ri ringInput) DeepCopy() (graph.Value, error) {
	ri.Rows = eden.CloneRows(ri.Rows)
	return ri, nil
}

// pivotMsg carries one pivot row around the ring. Hops counts the edges
// travelled so the row is dropped before returning to its owner.
type pivotMsg struct {
	K    int
	Row  []int32
	Hops int
}

// PackedSize implements eden.Sized.
func (pm pivotMsg) PackedSize() int64 { return int64(4*len(pm.Row)) + 32 }

// DeepCopy implements eden.Sized.
func (pm pivotMsg) DeepCopy() (graph.Value, error) {
	pm.Row = eden.CloneSlice(pm.Row)
	return pm, nil
}

// EdenRingProgram distributes the distance-matrix rows over ringSize
// processes in a ring. Initialised with its rows, each process computes
// the minimum distances by updating its rows continuously with the pivot
// rows received from (and forwarded to) the ring; the row updates depend
// on each previous stage but are pipelined around the ring (§V).
func EdenRingProgram(g Graph, ringSize int, minPlusCost int64) pe.Program {
	n := len(g)
	if ringSize <= 0 {
		panic("apsp: ring size must be positive")
	}
	if ringSize > n {
		ringSize = n
	}
	p := ringSize
	return func(px pe.Ctx) graph.Value {
		bounds := make([][2]int, p)
		inputs := make([]graph.Value, p)
		for i := 0; i < p; i++ {
			lo, hi := n*i/p, n*(i+1)/p
			bounds[i] = [2]int{lo, hi}
			rows := make(Graph, hi-lo)
			for r := lo; r < hi; r++ {
				rows[r-lo] = append([]int32(nil), g[r]...)
			}
			inputs[i] = ringInput{Lo: lo, Rows: rows}
		}
		outs := skel.Ring(px, "apsp", p, func(w pe.Ctx, idx int, input graph.Value,
			fromPred pe.StreamIn, toSucc pe.StreamOut) graph.Value {
			in := input.(ringInput)
			rows := in.Rows
			lo, hi := bounds[idx][0], bounds[idx][1]
			w.AddResident(int64(len(rows)) * int64(n) * 4)
			for k := 0; k < n; k++ {
				var pivot []int32
				if k >= lo && k < hi {
					// Our own row k is up to date through stage k-1:
					// snapshot it and start it around the ring.
					pivot = append([]int32(nil), rows[k-lo]...)
					if p > 1 {
						w.StreamSend(toSucc, pivotMsg{K: k, Row: pivot, Hops: 1})
					}
				} else {
					v, ok := w.StreamRecv(fromPred)
					if !ok {
						panic("apsp: ring stream closed early")
					}
					m := v.(pivotMsg)
					if m.K != k {
						panic(fmt.Sprintf("apsp: node %d expected pivot %d, got %d", idx, k, m.K))
					}
					pivot = m.Row
					if m.Hops < p-1 {
						// Forward before computing: this is the
						// pipelining that hides the ring latency.
						w.StreamSend(toSucc, pivotMsg{K: k, Row: pivot, Hops: m.Hops + 1})
					}
				}
				for r := range rows {
					UpdateRowInPlace(w, minPlusCost, rows[r], pivot, k)
				}
			}
			if p > 1 {
				w.StreamClose(toSucc)
				if _, ok := w.StreamRecv(fromPred); ok {
					panic("apsp: unexpected extra pivot after final stage")
				}
			}
			return rows
		}, inputs)

		out := make(Graph, 0, n)
		for _, o := range outs {
			out = append(out, o.(Graph)...)
		}
		return out
	}
}
