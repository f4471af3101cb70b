package apsp

import (
	"testing"
	"testing/quick"

	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/gum"
)

type nopCtx struct{ burned, alloced int64 }

func (n *nopCtx) Burn(ns int64) { n.burned += ns }
func (n *nopCtx) Alloc(b int64) { n.alloced += b }

func TestFloydWarshallSmallKnown(t *testing.T) {
	// 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
	g := Graph{
		{0, 1, 10},
		{Inf, 0, 2},
		{Inf, Inf, 0},
	}
	d := FloydWarshall(g)
	if d[0][2] != 3 {
		t.Fatalf("d[0][2] = %d, want 3", d[0][2])
	}
	if d[2][0] != Inf {
		t.Fatalf("d[2][0] = %d, want Inf", d[2][0])
	}
}

func TestUpdateRowMatchesOracleStage(t *testing.T) {
	g := RandomGraph(12, 3, 9, 40)
	// Apply stage 0 manually via UpdateRow to every row and compare
	// against one FW iteration.
	want := Clone(g)
	for i := 0; i < 12; i++ {
		if w := want[i][0]; w < Inf {
			for j := 0; j < 12; j++ {
				if alt := w + want[0][j]; alt < want[i][j] {
					want[i][j] = alt
				}
			}
		}
	}
	ctx := &nopCtx{}
	pivot := append([]int32(nil), g[0]...)
	for i := 0; i < 12; i++ {
		got := UpdateRow(ctx, 1, g[i], pivot, 0)
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("row %d col %d: %d != %d", i, j, got[j], want[i][j])
			}
		}
	}
}

// naiveStage is one Floyd–Warshall row update written out longhand, so
// the checks below share no code with minPlusRow.
func naiveStage(row, pivot []int32, k int) []int32 {
	out := append([]int32(nil), row...)
	if row[k] >= Inf {
		return out
	}
	for j := 0; j < len(row); j++ {
		if alt := row[k] + pivot[j]; alt < row[j] {
			out[j] = alt
		}
	}
	return out
}

// TestRowUpdatesMatchNaiveLoops checks all three entry points against
// naiveStage on random graphs that also hold what the kernel's guard
// is for: rows with no edge at all, and pivot distances at and past Inf.
func TestRowUpdatesMatchNaiveLoops(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		const n = 37
		g := RandomGraph(n, seed, 9, 15)
		for j := range g[5] {
			g[5][j], g[20][j] = Inf, Inf
		}
		g[7][3], g[8][3] = Inf, Inf+3

		want := Clone(g)
		for k := 0; k < n; k++ {
			pivot := append([]int32(nil), want[k]...)
			for i := 0; i < n; i++ {
				row := append([]int32(nil), want[i]...)
				stage := naiveStage(row, pivot, k)

				ctx := &nopCtx{}
				got := UpdateRow(ctx, 1, row, pivot, k)
				if !Equal(Graph{got}, Graph{stage}) {
					t.Fatalf("seed %d stage %d row %d: UpdateRow = %v, want %v", seed, k, i, got, stage)
				}
				if !Equal(Graph{row}, want[i:i+1]) {
					t.Fatalf("seed %d stage %d row %d: UpdateRow wrote to its input", seed, k, i)
				}
				if ctx.burned != n || ctx.alloced != n*AllocPerElem+24 {
					t.Fatalf("UpdateRow charged burn %d alloc %d for %d elements", ctx.burned, ctx.alloced, n)
				}

				ctx = &nopCtx{}
				UpdateRowInPlace(ctx, 1, row, pivot, k)
				if !Equal(Graph{row}, Graph{stage}) {
					t.Fatalf("seed %d stage %d row %d: UpdateRowInPlace = %v, want %v", seed, k, i, row, stage)
				}
				if ctx.burned != n || ctx.alloced != 24 {
					t.Fatalf("UpdateRowInPlace charged burn %d alloc %d for %d elements", ctx.burned, ctx.alloced, n)
				}
				copy(want[i], stage)
			}
		}
		if got := FloydWarshall(g); !Equal(got, want) {
			t.Fatalf("seed %d: FloydWarshall differs from %d naive stages", seed, n)
		}
	}
}

func TestSeqProgramMatchesOracle(t *testing.T) {
	g := RandomGraph(24, 5, 9, 30)
	want := FloydWarshall(g)
	cfg := gph.WorkStealingConfig(1)
	res, err := gph.Run(cfg, SeqProgram(g, cfg.Costs.MinPlus))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.(Graph), want) {
		t.Fatal("sequential program differs from oracle")
	}
}

// TestGpHProgramCorrectBothPolicies also pins the simulator's charges:
// the elapsed virtual time and duplicate entries below are what the
// lattice produced when every node copied its row, so a node that
// updates in place must still charge exactly UpdateRow's cost (Fig. 5
// models GHC's immutable rows).
func TestGpHProgramCorrectBothPolicies(t *testing.T) {
	g := RandomGraph(24, 7, 9, 30)
	in := Clone(g)
	want := FloydWarshall(g)
	for _, c := range []struct {
		eager   bool
		cores   int
		elapsed int64
		dups    int
	}{
		{false, 1, 69936, 0},
		{false, 4, 47256, 913},
		{true, 1, 90096, 0},
		{true, 4, 68832, 0},
	} {
		cfg := gph.WorkStealingConfig(c.cores)
		cfg.EagerBlackholing = c.eager
		cfg.ResidentBytes = 2 * Bytes(24)
		res, err := gph.Run(cfg, GpHProgram(g, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatalf("eager=%v cores=%d: %v", c.eager, c.cores, err)
		}
		if !Equal(res.Value.(Graph), want) {
			t.Fatalf("eager=%v cores=%d: wrong distances", c.eager, c.cores)
		}
		if !Equal(g, in) {
			t.Fatalf("eager=%v cores=%d: the run wrote to its input graph", c.eager, c.cores)
		}
		if res.Elapsed != c.elapsed || res.Stats.DupEntries != c.dups {
			t.Fatalf("eager=%v cores=%d: elapsed %d, %d duplicate entries; want %d, %d",
				c.eager, c.cores, res.Elapsed, res.Stats.DupEntries, c.elapsed, c.dups)
		}
	}
}

// TestGpHProgramOnGUM runs the lattice on simulated GUM, where a fetch
// of an exported row charges eden.SizeOf of the node's value. The pins
// are the charges the lattice produced when its values were bare rows.
func TestGpHProgramOnGUM(t *testing.T) {
	g := RandomGraph(24, 7, 9, 30)
	want := FloydWarshall(g)
	for _, c := range []struct {
		eager   bool
		elapsed int64
		bytes   int64
	}{
		{false, 203442, 1136},
		{true, 243372, 1136},
	} {
		cfg := gum.NewConfig(4, 4)
		cfg.EagerBlackholing = c.eager
		res, err := gum.Run(cfg, GpHProgram(g, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatalf("eager=%v: %v", c.eager, err)
		}
		if !Equal(res.Value.(Graph), want) {
			t.Fatalf("eager=%v: wrong distances", c.eager)
		}
		if res.Stats.Fetches == 0 {
			t.Fatalf("eager=%v: no row was fetched across PEs; the size rule went unexercised", c.eager)
		}
		if res.Elapsed != c.elapsed || res.Stats.BytesSent != c.bytes {
			t.Fatalf("eager=%v: elapsed %d, %d bytes sent; want %d, %d",
				c.eager, res.Elapsed, res.Stats.BytesSent, c.elapsed, c.bytes)
		}
	}
}

func TestLazyBlackholingDuplicatesOnAPSP(t *testing.T) {
	g := RandomGraph(32, 11, 9, 30)
	mk := func(eager bool) *gph.Result {
		cfg := gph.WorkStealingConfig(8)
		cfg.EagerBlackholing = eager
		res, err := gph.Run(cfg, GpHProgram(g, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy, eager := mk(false), mk(true)
	if lazy.Stats.DupEntries == 0 {
		t.Fatal("lazy black-holing produced no duplicate entries on the shared lattice")
	}
	if eager.Stats.DupEntries != 0 {
		t.Fatalf("eager black-holing produced %d duplicates", eager.Stats.DupEntries)
	}
}

func TestEdenRingMatchesOracle(t *testing.T) {
	g := RandomGraph(30, 13, 9, 30)
	want := FloydWarshall(g)
	for _, p := range []int{1, 2, 3, 5} {
		cfg := eden.NewConfig(p+1, 8)
		res, err := eden.Run(cfg, EdenRingProgram(g, p, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !Equal(res.Value.(Graph), want) {
			t.Fatalf("p=%d: wrong distances", p)
		}
	}
}

func TestEdenRingPipelines(t *testing.T) {
	// With p nodes, each pivot row crosses p-1 edges: n*(p-1) pivot
	// messages (plus inputs/results/closes).
	const n, p = 40, 4
	g := RandomGraph(n, 17, 9, 30)
	cfg := eden.NewConfig(p+1, 8)
	res, err := eden.Run(cfg, EdenRingProgram(g, p, cfg.Costs.MinPlus))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages < n*(p-1) {
		t.Fatalf("messages = %d, want >= %d", res.Stats.Messages, n*(p-1))
	}
}

func TestEdenRingSpeedup(t *testing.T) {
	// Needs paper-scale rows for the per-stage compute to dominate the
	// per-stage ring communication (n=96 genuinely does not speed up).
	g := RandomGraph(240, 19, 9, 30)
	mk := func(p, cores int) int64 {
		cfg := eden.NewConfig(p+1, cores)
		res, err := eden.Run(cfg, EdenRingProgram(g, p, cfg.Costs.MinPlus))
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	t1 := mk(1, 1)
	t8 := mk(8, 8)
	if sp := float64(t1) / float64(t8); sp < 2.5 {
		t.Fatalf("ring speedup = %.2f (t1=%d t8=%d), want >= 2.5", sp, t1, t8)
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := RandomGraph(20, 42, 9, 30)
	b := RandomGraph(20, 42, 9, 30)
	if !Equal(a, b) {
		t.Fatal("RandomGraph not deterministic")
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	// After FW, d[i][j] <= d[i][k] + d[k][j] for all i,j,k.
	f := func(seed uint64) bool {
		g := RandomGraph(12, seed, 9, 35)
		d := FloydWarshall(g)
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				for k := 0; k < 12; k++ {
					if d[i][k] < Inf && d[k][j] < Inf && d[i][j] > d[i][k]+d[k][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFWIdempotentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := RandomGraph(10, seed, 9, 30)
		d1 := FloydWarshall(g)
		d2 := FloydWarshall(d1)
		return Equal(d1, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStronglyConnected(t *testing.T) {
	d := FloydWarshall(RandomGraph(25, 23, 9, 10))
	for i := range d {
		for j := range d[i] {
			if d[i][j] >= Inf {
				t.Fatalf("d[%d][%d] unreachable; graph should be strongly connected", i, j)
			}
		}
	}
}
