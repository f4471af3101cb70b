// Package skel provides the Eden algorithmic skeletons (§II-A) the
// paper's programs use: parMap, parMapReduce (Google-MapReduce style),
// masterWorker (a dynamic bag-of-tasks farm), and the topology
// skeletons ring and torus.
//
// Each skeleton is an ordinary higher-order function over Eden process
// abstractions: callers supply sequential worker functions; the skeleton
// hides process instantiation, channel wiring and placement — but, as
// the paper stresses, remains plain library code that systems
// programmers can customise.
package skel

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/graph"
	"parhask/internal/pe"
)

// WorkerFunc maps one input value to one output value inside a worker
// process.
type WorkerFunc func(w pe.Ctx, in graph.Value) graph.Value

// placement returns the PE for the i-th worker: round-robin starting
// after the caller's PE, as Eden's instantiation does by default.
func placement(p pe.Ctx, i int) int {
	return (p.PE() + 1 + i) % p.PEs()
}

// ParMap applies f to every input in its own Eden process (one process
// per input, placed round-robin over the PEs) and returns the results in
// input order. Inputs are shipped to the workers over one-value
// channels; results come back the same way.
func ParMap(p pe.Ctx, name string, f WorkerFunc, inputs []graph.Value) []graph.Value {
	n := len(inputs)
	resIns := make([]pe.Inport, n)
	for i := 0; i < n; i++ {
		dest := placement(p, i)
		argIn, argOut := p.NewChan(dest)
		resIn, resOut := p.NewChan(p.PE())
		resIns[i] = resIn
		p.Spawn(dest, fmt.Sprintf("%s-%d", name, i), func(w pe.Ctx) {
			w.Send(resOut, f(w, w.Receive(argIn)))
		})
		p.Send(argOut, inputs[i])
	}
	out := make([]graph.Value, n)
	for i, in := range resIns {
		out[i] = p.Receive(in)
	}
	return out
}

// KV is one key-value pair produced by a map function.
type KV struct {
	Key graph.Value
	Val graph.Value
}

// PackedSize implements eden.Sized: an 8-byte wire header plus the two
// nested values at their own packed sizes.
func (kv KV) PackedSize() int64 {
	return 8 + eden.SizeOf(kv.Key) + eden.SizeOf(kv.Val)
}

// DeepCopy implements eden.Sized: both nested values are copied with
// the message rules.
func (kv KV) DeepCopy() (graph.Value, error) {
	k, err := eden.CopyChecked(kv.Key)
	if err != nil {
		return nil, err
	}
	v, err := eden.CopyChecked(kv.Val)
	if err != nil {
		return nil, err
	}
	return KV{Key: k, Val: v}, nil
}

// MapFunc expands one input into key-value pairs.
type MapFunc func(w pe.Ctx, in graph.Value) []KV

// ReduceFunc combines all values collected for one key.
type ReduceFunc func(w pe.Ctx, key graph.Value, vals []graph.Value) graph.Value

// ParMapReduce is the Google-style map-reduce skeleton of §II-A: a
// parallel map producing key-value pairs from every input, followed by a
// per-key reduction. Workers pre-reduce locally (combiner) so only one
// pair per key per worker crosses the network; the caller performs the
// final reduction. Results are returned in first-appearance key order
// (deterministically).
func ParMapReduce(p pe.Ctx, name string, mapf MapFunc, reducef ReduceFunc, inputs []graph.Value) []KV {
	shares := unshuffle(p.PEs(), inputs)
	resIns := make([]pe.StreamIn, 0, len(shares))
	for i, share := range shares {
		dest := placement(p, i)
		argIn, argOut := p.NewStream(dest)
		resIn, resOut := p.NewStream(p.PE())
		resIns = append(resIns, resIn)
		p.Spawn(dest, fmt.Sprintf("%s-%d", name, i), func(w pe.Ctx) {
			g := newGrouper()
			for {
				x, ok := w.StreamRecv(argIn)
				if !ok {
					break
				}
				for _, kv := range mapf(w, x) {
					g.add(kv.Key, kv.Val)
				}
			}
			for _, k := range g.keys {
				w.StreamSend(resOut, KV{Key: k, Val: reducef(w, k, g.vals[k])})
			}
			w.StreamClose(resOut)
		})
		p.SendAll(argOut, share)
	}
	final := newGrouper()
	for _, in := range resIns {
		for {
			v, ok := p.StreamRecv(in)
			if !ok {
				break
			}
			kv := v.(KV)
			final.add(kv.Key, kv.Val)
		}
	}
	out := make([]KV, 0, len(final.keys))
	for _, k := range final.keys {
		out = append(out, KV{Key: k, Val: reducef(p, k, final.vals[k])})
	}
	return out
}

// grouper groups values by key preserving first-appearance key order
// (map iteration order would be nondeterministic).
type grouper struct {
	keys []graph.Value
	vals map[graph.Value][]graph.Value
}

func newGrouper() *grouper {
	return &grouper{vals: make(map[graph.Value][]graph.Value)}
}

func (g *grouper) add(k, v graph.Value) {
	if _, ok := g.vals[k]; !ok {
		g.keys = append(g.keys, k)
	}
	g.vals[k] = append(g.vals[k], v)
}

// unshuffle distributes xs round-robin over n shares (Eden's takeEach /
// unshuffle distribution, which balances inputs whose cost grows along
// the list); empty shares are dropped.
func unshuffle(n int, xs []graph.Value) [][]graph.Value {
	if n <= 0 {
		n = 1
	}
	shares := make([][]graph.Value, n)
	for i, x := range xs {
		shares[i%n] = append(shares[i%n], x)
	}
	out := shares[:0]
	for _, s := range shares {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}
