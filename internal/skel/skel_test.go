package skel

import (
	"errors"
	"sort"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/eden/edentest"
	"parhask/internal/graph"
	"parhask/internal/pe"
)

func runE(t *testing.T, cfg eden.Config, main func(pe.Ctx) graph.Value) *eden.Result {
	t.Helper()
	res, err := eden.Run(cfg, main)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParMapSquares(t *testing.T) {
	res := runE(t, eden.NewConfig(4, 4), func(p pe.Ctx) graph.Value {
		inputs := make([]graph.Value, 10)
		for i := range inputs {
			inputs[i] = i
		}
		out := ParMap(p, "sq", func(w pe.Ctx, in graph.Value) graph.Value {
			w.Burn(100_000)
			n := in.(int)
			return n * n
		}, inputs)
		sum := 0
		for i, v := range out {
			if v != i*i {
				t.Errorf("out[%d] = %v, want %d", i, v, i*i)
			}
			sum += v.(int)
		}
		return sum
	})
	want := 0
	for i := 0; i < 10; i++ {
		want += i * i
	}
	if res.Value != want {
		t.Fatalf("sum = %v, want %d", res.Value, want)
	}
	if res.Stats.Processes != 10 {
		t.Fatalf("processes = %d, want 10", res.Stats.Processes)
	}
}

func TestParMapParallelSpeedup(t *testing.T) {
	main := func(p pe.Ctx) graph.Value {
		inputs := make([]graph.Value, 8)
		for i := range inputs {
			inputs[i] = i
		}
		ParMap(p, "w", func(w pe.Ctx, in graph.Value) graph.Value {
			w.Alloc(128 * 1024)
			w.Burn(10_000_000)
			return in
		}, inputs)
		return true
	}
	r1 := runE(t, eden.NewConfig(1, 1), main)
	r8 := runE(t, eden.NewConfig(8, 8), main)
	if sp := float64(r1.Elapsed) / float64(r8.Elapsed); sp < 4 {
		t.Fatalf("speedup = %.2f, want >= 4", sp)
	}
}

func TestParMapReduceGroupsByKey(t *testing.T) {
	res := runE(t, eden.NewConfig(4, 4), func(p pe.Ctx) graph.Value {
		inputs := make([]graph.Value, 30)
		for i := range inputs {
			inputs[i] = i
		}
		kvs := ParMapReduce(p, "mr",
			func(w pe.Ctx, in graph.Value) []KV {
				w.Burn(20_000)
				return []KV{{Key: in.(int) % 3, Val: 1}}
			},
			func(w pe.Ctx, key graph.Value, vals []graph.Value) graph.Value {
				s := 0
				for _, v := range vals {
					s += v.(int)
				}
				return s
			}, inputs)
		counts := map[int]int{}
		for _, kv := range kvs {
			counts[kv.Key.(int)] = kv.Val.(int)
		}
		return counts[0]*100 + counts[1]*10 + counts[2]
	})
	// 30 inputs: keys 0,1,2 each appear 10 times.
	if res.Value != 10*100+10*10+10 {
		t.Fatalf("counts encoded = %v, want 1110", res.Value)
	}
}

func TestParMapReduceDeterministicKeyOrder(t *testing.T) {
	main := func(p pe.Ctx) graph.Value {
		inputs := []graph.Value{5, 3, 5, 1, 3}
		kvs := ParMapReduce(p, "mr",
			func(w pe.Ctx, in graph.Value) []KV {
				return []KV{{Key: in, Val: 1}}
			},
			func(w pe.Ctx, key graph.Value, vals []graph.Value) graph.Value {
				return len(vals)
			}, inputs)
		keys := make([]int, len(kvs))
		for i, kv := range kvs {
			keys[i] = kv.Key.(int)
		}
		return keys
	}
	a := runE(t, eden.NewConfig(3, 3), main)
	b := runE(t, eden.NewConfig(3, 3), main)
	ka, kb := a.Value.([]int), b.Value.([]int)
	if len(ka) != 3 || len(kb) != 3 {
		t.Fatalf("keys = %v / %v, want 3 distinct", ka, kb)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key order nondeterministic: %v vs %v", ka, kb)
		}
	}
}

func TestMasterWorkerStaticTasks(t *testing.T) {
	res := runE(t, eden.NewConfig(4, 4), func(p pe.Ctx) graph.Value {
		tasks := make([]graph.Value, 20)
		for i := range tasks {
			tasks[i] = i
		}
		out := MasterWorker(p, "mw", 3, 2, func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
			n := task.(int)
			w.Burn(int64(50_000 + 20_000*(n%5))) // irregular sizes
			return nil, n * 2
		}, tasks)
		got := make([]int, len(out))
		for i, v := range out {
			got[i] = v.(int)
		}
		sort.Ints(got)
		return got
	})
	got := res.Value.([]int)
	if len(got) != 20 {
		t.Fatalf("got %d results, want 20", len(got))
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("sorted[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestMasterWorkerDynamicTaskTree(t *testing.T) {
	// Each task n > 0 spawns two subtasks n-1; counting all results
	// verifies dynamic task creation and clean termination.
	res := runE(t, eden.NewConfig(4, 4), func(p pe.Ctx) graph.Value {
		out := MasterWorker(p, "tree", 4, 2, func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
			n := task.(int)
			w.Burn(30_000)
			if n == 0 {
				return nil, 1
			}
			return []graph.Value{n - 1, n - 1}, 0
		}, []graph.Value{4})
		total, leaves := 0, 0
		for _, v := range out {
			total++
			leaves += v.(int)
		}
		return []int{total, leaves}
	})
	got := res.Value.([]int)
	// A binary tree of depth 4: 2^5-1 = 31 tasks, 16 leaves.
	if got[0] != 31 || got[1] != 16 {
		t.Fatalf("tasks=%d leaves=%d, want 31/16", got[0], got[1])
	}
}

func TestMasterWorkerEmptyInitial(t *testing.T) {
	res := runE(t, eden.NewConfig(2, 2), func(p pe.Ctx) graph.Value {
		out := MasterWorker(p, "mt", 2, 1, func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
			return nil, task
		}, nil)
		return len(out)
	})
	if res.Value != 0 {
		t.Fatalf("results = %v, want 0", res.Value)
	}
}

func TestRingAllToAll(t *testing.T) {
	// Each node injects its input and forwards everything it receives
	// n-1 hops; every node must see every input exactly once.
	const n = 5
	res := runE(t, eden.NewConfig(n+1, n+1), func(p pe.Ctx) graph.Value {
		inputs := make([]graph.Value, n)
		for i := range inputs {
			inputs[i] = 10 + i
		}
		outs := Ring(p, "ring", n, func(w pe.Ctx, idx int, input graph.Value,
			fromPred pe.StreamIn, toSucc pe.StreamOut) graph.Value {
			sum := input.(int)
			w.StreamSend(toSucc, input)
			for k := 0; k < n-1; k++ {
				v, ok := w.StreamRecv(fromPred)
				if !ok {
					t.Errorf("node %d: stream closed early", idx)
					return -1
				}
				sum += v.(int)
				if k < n-2 {
					w.StreamSend(toSucc, v)
				}
			}
			w.StreamClose(toSucc)
			// Drain the final close from the predecessor.
			if _, ok := w.StreamRecv(fromPred); ok {
				t.Errorf("node %d: expected close", idx)
			}
			return sum
		}, inputs)
		for i, v := range outs {
			if v != 10+11+12+13+14 {
				t.Errorf("node %d sum = %v", i, v)
			}
		}
		return len(outs)
	})
	if res.Value != n {
		t.Fatalf("outs = %v", res.Value)
	}
}

func TestTorusNeighbourWiring(t *testing.T) {
	// Every node sends its coordinates left and up once; it must receive
	// its right neighbour's coordinates on fromRight and its below
	// neighbour's on fromBelow.
	const q = 3
	res := runE(t, eden.NewConfig(q*q+1, 8), func(p pe.Ctx) graph.Value {
		inputs := make([][]graph.Value, q)
		for i := range inputs {
			inputs[i] = make([]graph.Value, q)
			for j := range inputs[i] {
				inputs[i][j] = []int{i, j}
			}
		}
		outs := Torus(p, "torus", q, func(w pe.Ctx, i, j int, input graph.Value,
			fromRight pe.StreamIn, toLeft pe.StreamOut,
			fromBelow pe.StreamIn, toUp pe.StreamOut) graph.Value {
			w.StreamSend(toLeft, input)
			w.StreamSend(toUp, input)
			w.StreamClose(toLeft)
			w.StreamClose(toUp)
			r, _ := w.StreamRecv(fromRight)
			b, _ := w.StreamRecv(fromBelow)
			// Drain closes.
			w.StreamRecv(fromRight)
			w.StreamRecv(fromBelow)
			rr := r.([]int)
			bb := b.([]int)
			okR := rr[0] == i && rr[1] == (j+1)%q
			okB := bb[0] == (i+1)%q && bb[1] == j
			return okR && okB
		}, inputs)
		for i := range outs {
			for j := range outs[i] {
				if outs[i][j] != true {
					t.Errorf("node (%d,%d) wired wrongly", i, j)
				}
			}
		}
		return true
	})
	if res.Value != true {
		t.Fatal("torus wiring test failed")
	}
}

func TestRingDeterminism(t *testing.T) {
	main := func(p pe.Ctx) graph.Value {
		inputs := make([]graph.Value, 4)
		for i := range inputs {
			inputs[i] = i
		}
		Ring(p, "r", 4, func(w pe.Ctx, idx int, input graph.Value,
			in pe.StreamIn, out pe.StreamOut) graph.Value {
			w.StreamSend(out, input)
			w.StreamClose(out)
			v, _ := w.StreamRecv(in)
			w.StreamRecv(in)
			return v
		}, inputs)
		return true
	}
	a := runE(t, eden.NewConfig(5, 4), main)
	b := runE(t, eden.NewConfig(5, 4), main)
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("nondeterministic ring run: %d vs %d", a.Elapsed, b.Elapsed)
	}
}

// Both skeleton packets copy their nested values by the message rules:
// rows are cloned and evaluated thunks become fresh ones.
func TestMessageCopiesShareNothing(t *testing.T) {
	edentest.CheckCopies(t, []edentest.CopyCase{
		{Name: "KV", Make: func() graph.Value {
			return KV{Key: "k", Val: []graph.Value{graph.NewValue([]int32{1, 2}), []float64{3}}}
		}},
		{Name: "mwResult", Make: func() graph.Value {
			return mwResult{NewTasks: []graph.Value{graph.NewValue([]int{4}), int64(5)}, Result: [][]int32{{6, 7}, nil}}
		}},
		{Name: "mwResult without new tasks", Make: func() graph.Value { return mwResult{Result: 8} }},
	})
}

// An unevaluated value nested in a packet is refused, not shared.
func TestMessageCopyRefusesUnevaluated(t *testing.T) {
	for _, v := range []graph.Value{
		KV{Key: 1, Val: graph.NewPlaceholder()},
		mwResult{NewTasks: []graph.Value{graph.NewPlaceholder()}},
	} {
		var ue *eden.UnevaluatedError
		if _, err := eden.CopyChecked(v); !errors.As(err, &ue) {
			t.Fatalf("CopyChecked(%T) = %v, want *eden.UnevaluatedError", v, err)
		}
	}
}
