package strategies

import (
	"testing"

	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/rts"
)

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
