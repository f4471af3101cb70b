package strategies

import (
	"testing"

	"parhask/internal/exec"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/rts"
)

func TestParMapComputesInOrder(t *testing.T) {
	cfg := gph.WorkStealingConfig(4)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		xs := []graph.Value{1, 2, 3, 4, 5, 6, 7, 8}
		out := ParMap(ctx, func(c exec.Ctx, v graph.Value) graph.Value {
			c.Burn(200_000)
			return v.(int) * 10
		}, xs)
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Value.([]graph.Value)
	for i, v := range out {
		if v != (i+1)*10 {
			t.Fatalf("out[%d] = %v, want %d", i, v, (i+1)*10)
		}
	}
}

func TestParMapEqualsSequentialMap(t *testing.T) {
	// Semantic property: parMap f xs == map f xs for a pure f.
	f := func(v graph.Value) graph.Value { return v.(int)*3 + 1 }
	cfg := gph.WorkStealingConfig(8)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		xs := make([]graph.Value, 40)
		for i := range xs {
			xs[i] = i
		}
		par := ParMap(ctx, func(c exec.Ctx, v graph.Value) graph.Value {
			c.Burn(50_000)
			return f(v)
		}, xs)
		for i := range xs {
			if par[i] != f(xs[i]) {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != true {
		t.Fatal("parMap disagrees with map")
	}
}

func TestSeqListForcesInOrder(t *testing.T) {
	cfg := gph.NewConfig(1)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		var order []int
		ts := make([]*graph.Thunk, 5)
		for i := range ts {
			i := i
			ts[i] = Thunk(func(c *rts.Ctx) graph.Value {
				order = append(order, i)
				return i
			})
		}
		SeqList(RWHNF)(ctx, ts)
		return order
	})
	if err != nil {
		t.Fatal(err)
	}
	order := res.Value.([]int)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestRNFForcesNestedStructure(t *testing.T) {
	cfg := gph.NewConfig(1)
	_, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		inner := Thunk(func(c *rts.Ctx) graph.Value { return 5 })
		outer := graph.NewThunk(func(c graph.Context) graph.Value {
			return []*graph.Thunk{inner, graph.NewValue(6)}
		})
		RNF(ctx, outer)
		if !inner.IsEvaluated() {
			t.Error("RNF did not force inner thunk")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParListSparksAll(t *testing.T) {
	cfg := gph.WorkStealingConfig(2)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		ts := make([]*graph.Thunk, 10)
		for i := range ts {
			ts[i] = Thunk(func(c *rts.Ctx) graph.Value { c.Burn(10_000); return 1 })
		}
		ParListWHNF(ctx, ts)
		sum := 0
		for _, th := range ts {
			sum += ctx.Force(th).(int)
		}
		return sum
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 10 {
		t.Fatalf("sum = %v", res.Value)
	}
	if res.Stats.SparksCreated != 10 {
		t.Fatalf("sparks = %d, want 10", res.Stats.SparksCreated)
	}
}

func TestParBufferValuesAndWindow(t *testing.T) {
	cfg := gph.WorkStealingConfig(4)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		ts := make([]*graph.Thunk, 30)
		for i := range ts {
			i := i
			ts[i] = Thunk(func(c *rts.Ctx) graph.Value {
				c.Burn(100_000)
				return i * 2
			})
		}
		out := ParBuffer(ctx, 5, ts)
		for i, v := range out {
			if v != i*2 {
				t.Errorf("out[%d] = %v", i, v)
			}
		}
		return len(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 30 {
		t.Fatalf("got %v", res.Value)
	}
	// Every element sparked exactly once: window n up front plus one per
	// consumed element until the tail.
	if res.Stats.SparksCreated+res.Stats.SparksDud != 30 {
		t.Fatalf("sparks+duds = %d, want 30", res.Stats.SparksCreated+res.Stats.SparksDud)
	}
}

func TestParBufferWindowOne(t *testing.T) {
	cfg := gph.NewConfig(2)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		ts := []*graph.Thunk{
			Thunk(func(c *rts.Ctx) graph.Value { return 1 }),
			Thunk(func(c *rts.Ctx) graph.Value { return 2 }),
		}
		out := ParBuffer(ctx, 0, ts) // clamps to 1
		return out[0].(int) + out[1].(int)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Fatalf("got %v", res.Value)
	}
}
