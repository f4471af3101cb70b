package queens

import (
	"testing"

	"parhask/internal/eden"
	"parhask/internal/eden/edentest"
	"parhask/internal/gph"
	"parhask/internal/graph"
)

type nopCtx struct{ burned, alloced int64 }

func (n *nopCtx) Burn(ns int64) { n.burned += ns }
func (n *nopCtx) Alloc(b int64) { n.alloced += b }

func TestCountMatchesKnown(t *testing.T) {
	for n, want := range Known {
		if n > 10 {
			continue // keep the host time bounded
		}
		if got := Count(&nopCtx{}, n, nil); got != want {
			t.Errorf("queens(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCountChargesPerNode(t *testing.T) {
	ctx := &nopCtx{}
	Count(ctx, 6, nil)
	if ctx.burned == 0 || ctx.burned%NodeCost != 0 {
		t.Fatalf("burned = %d, want positive multiple of %d", ctx.burned, NodeCost)
	}
}

func TestEdenMasterWorkerQueens(t *testing.T) {
	for _, n := range []int{8, 9} {
		cfg := eden.NewConfig(5, 4)
		res, err := eden.Run(cfg, EdenProgram(n, 4, 2, 2))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Value != Known[n] {
			t.Fatalf("n=%d: got %v, want %d", n, res.Value, Known[n])
		}
	}
}

func TestGpHQueens(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		cfg := gph.WorkStealingConfig(4)
		res, err := gph.Run(cfg, GpHProgram(9, depth))
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if res.Value != Known[9] {
			t.Fatalf("depth=%d: got %v, want %d", depth, res.Value, Known[9])
		}
	}
}

func TestQueensSpeedup(t *testing.T) {
	r1, err := gph.Run(gph.WorkStealingConfig(1), GpHProgram(11, 2))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := gph.Run(gph.WorkStealingConfig(8), GpHProgram(11, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != Known[11] || r8.Value != Known[11] {
		t.Fatalf("bad counts %v %v", r1.Value, r8.Value)
	}
	if sp := float64(r1.Elapsed) / float64(r8.Elapsed); sp < 3.5 {
		t.Fatalf("speedup = %.2f, want >= 3.5", sp)
	}
}

func TestDeeperSplitMakesMoreTasks(t *testing.T) {
	run := func(depth int) int {
		cfg := eden.NewConfig(4, 4)
		res, err := eden.Run(cfg, EdenProgram(8, 3, 2, depth))
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != Known[8] {
			t.Fatalf("depth=%d wrong count %v", depth, res.Value)
		}
		return res.Stats.Messages
	}
	if shallow, deep := run(1), run(3); deep <= shallow {
		t.Fatalf("deeper split (%d msgs) should create more task traffic than shallow (%d)", deep, shallow)
	}
}

// The Eden task packet's copy shares no columns with its source.
func TestMessageCopiesShareNothing(t *testing.T) {
	edentest.CheckCopies(t, []edentest.CopyCase{
		{Name: "prefix", Make: func() graph.Value { return prefix{N: 8, Cols: []int8{0, 4, 7}} }},
		{Name: "empty prefix", Make: func() graph.Value { return prefix{N: 8, Cols: []int8{}} }},
	})
}
