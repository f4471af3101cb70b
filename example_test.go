package parhask_test

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// Example_gph sparks two computations on a 2-core shared-heap runtime
// and folds their results — par and seq in four lines. The runtime is a
// deterministic simulation, so the output (including the virtual
// runtime) is reproducible.
func Example_gph() {
	cfg := gph.WorkStealingConfig(2)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		x := strategies.Thunk(func(c *rts.Ctx) graph.Value {
			c.Burn(1_000_000)
			return 40
		})
		ctx.Par(x) // spark x...
		y := 2
		return ctx.Force(x).(int) + y // ...and force it
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Value)
	// Output: 42
}

// Example_eden runs a four-process farm with the parMap skeleton on
// four distributed-heap PEs.
func Example_eden() {
	cfg := eden.NewConfig(4, 4)
	res, err := eden.Run(cfg, func(p pe.Ctx) graph.Value {
		squares := skel.ParMap(p, "sq", func(w pe.Ctx, in graph.Value) graph.Value {
			n := in.(int)
			w.Burn(100_000)
			return n * n
		}, []graph.Value{1, 2, 3, 4})
		sum := 0
		for _, v := range squares {
			sum += v.(int)
		}
		return sum
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Value)
	// Output: 30
}

// Example_strategies shows parList over a list of thunks — the
// evaluation-strategy style of the paper's §II-B.
func Example_strategies() {
	cfg := gph.WorkStealingConfig(4)
	res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
		ts := make([]*graph.Thunk, 8)
		for i := range ts {
			i := i
			ts[i] = strategies.Thunk(func(c *rts.Ctx) graph.Value {
				c.Burn(250_000)
				return i + 1
			})
		}
		strategies.ParListWHNF(ctx, ts) // parList rwhnf
		sum := 0
		for _, t := range ts {
			sum += ctx.Force(t).(int)
		}
		return sum
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Value)
	// Output: 36
}
