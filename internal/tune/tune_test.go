package tune

import (
	"testing"

	"parhask/internal/exec"
	"parhask/internal/graph"
)

// seqCtx is a minimal sequential exec.Ctx + graph.Context for driving
// ParSum without a runtime: Par is a no-op (the spine forces every
// sparked thunk itself), Force evaluates in place.
type seqCtx struct{}

func (seqCtx) Burn(int64)                      {}
func (seqCtx) Alloc(int64)                     {}
func (seqCtx) EagerBlackholing() bool          { return true }
func (seqCtx) BlackholeWriteCost() int64       { return 0 }
func (seqCtx) EnteredThunk(*graph.Thunk)       {}
func (seqCtx) LeftThunk(*graph.Thunk)          {}
func (seqCtx) BlockOnThunk(*graph.Thunk)       {}
func (seqCtx) WakeThunkWaiters(*graph.Thunk)   {}
func (seqCtx) NoteDuplicateEntry(*graph.Thunk) {}
func (c seqCtx) Par(*graph.Thunk)              {}
func (c seqCtx) Force(t *graph.Thunk) graph.Value {
	return graph.Force(c, t)
}
func (c seqCtx) ForceDeep(v graph.Value) graph.Value {
	return graph.ForceDeep(c, v)
}

func TestSplitterParSum(t *testing.T) {
	s := NewSplitter("sum", 4, 1, 1024)
	var leaves int
	got := s.ParSum(seqCtx{}, 0, 100, func(_ exec.Ctx, lo, hi int) int64 {
		if hi-lo > 4 {
			t.Errorf("leaf [%d,%d) wider than the grain", lo, hi)
		}
		leaves++
		var sum int64
		for i := lo; i < hi; i++ {
			sum += int64(i)
		}
		return sum
	})
	if want := int64(99 * 100 / 2); got != want {
		t.Fatalf("ParSum = %d, want %d", got, want)
	}
	if leaves < 100/4 {
		t.Fatalf("%d leaves ran, want at least %d", leaves, 100/4)
	}
	if s.ParSum(seqCtx{}, 5, 5, nil) != 0 {
		t.Fatal("empty range is not 0")
	}
	// The grain is clamped into [min, max].
	for _, c := range []struct{ grain, min, max, want int }{
		{8, 2, 16, 8}, {1, 2, 16, 2}, {64, 2, 16, 16}, {0, 0, 0, 1}, {1 << 30, 1, 0, 1 << 20},
	} {
		if got := NewSplitter("c", c.grain, c.min, c.max).grain; got != c.want {
			t.Errorf("NewSplitter(grain %d, [%d, %d]).grain = %d, want %d", c.grain, c.min, c.max, got, c.want)
		}
	}
}
