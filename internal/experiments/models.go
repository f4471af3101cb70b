package experiments

import (
	"fmt"
	"strings"

	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/stats"
	"parhask/internal/workloads/euler"
)

// ModelRow is one runtime organisation's result in the comparison.
type ModelRow struct {
	Name      string
	Elapsed   int64
	GlobalGCs int
	LocalGCs  int
	Messages  int
	Notes     string
}

// Models extends the paper's two-way comparison to every runtime
// organisation this repository implements, running the same sumEuler
// program on each: the shared heap (work stealing), the shared heap
// with the §VI semi-distributed local-heap GC, the shared heap with the
// parallel collector [29], and Eden's distributed heaps with skeletons.
type Models struct {
	Params Params
	Rows   []ModelRow
}

// RunModels executes the comparison on the 8-core machine.
func RunModels(p Params) *Models {
	m := &Models{Params: p}
	n, chunks := p.SumEulerN, p.SumEulerChunks

	steal := gph.WorkStealingConfig(p.Cores8)
	r1 := runGpH(steal, euler.GpHProgram(n, chunks, steal.Costs.GCDIter))
	m.Rows = append(m.Rows, ModelRow{
		Name: "GpH shared heap (work stealing)", Elapsed: r1.Elapsed,
		GlobalGCs: r1.Stats.GCs, Notes: fmt.Sprintf("%d steals", r1.Stats.Steals),
	})

	pgc := gph.WorkStealingConfig(p.Cores8)
	pgc.ParallelGC = true
	r2 := runGpH(pgc, euler.GpHProgram(n, chunks, pgc.Costs.GCDIter))
	m.Rows = append(m.Rows, ModelRow{
		Name: "GpH shared heap + parallel GC [29]", Elapsed: r2.Elapsed,
		GlobalGCs: r2.Stats.GCs,
	})

	lh := gph.LocalHeapsConfig(p.Cores8)
	r3 := runGpH(lh, euler.GpHProgram(n, chunks, lh.Costs.GCDIter))
	m.Rows = append(m.Rows, ModelRow{
		Name: "GpH semi-distributed heap (§VI)", Elapsed: r3.Elapsed,
		GlobalGCs: r3.Stats.GCs, LocalGCs: r3.Stats.LocalGCs,
		Notes: "local GCs need no barrier",
	})

	ecfg := eden.NewConfig(p.Cores8, p.Cores8)
	r4 := runEden(ecfg, euler.EdenProgram(n, 8, ecfg.Costs.GCDIter))
	m.Rows = append(m.Rows, ModelRow{
		Name: "Eden distributed heaps (skeletons)", Elapsed: r4.Elapsed,
		LocalGCs: r4.Stats.LocalGCs, Messages: r4.Stats.Messages,
	})
	return m
}

// Render prints the comparison table.
func (m *Models) Render() string {
	headers := []string{"Runtime organisation", "Runtime", "Global GCs", "Local GCs", "Messages", "Notes"}
	var rows [][]string
	for _, r := range m.Rows {
		rows = append(rows, []string{
			r.Name, stats.Seconds(r.Elapsed),
			fmt.Sprintf("%d", r.GlobalGCs), fmt.Sprintf("%d", r.LocalGCs),
			fmt.Sprintf("%d", r.Messages), r.Notes,
		})
	}
	title := fmt.Sprintf("Beyond the paper: every runtime organisation on sumEuler [1..%d] (%d cores)\n",
		m.Params.SumEulerN, m.Params.Cores8)
	return title + stats.Table(headers, rows)
}

// CheckShape verifies §VI-A's tradeoff directions: the semi-distributed
// heap is not slower than stop-the-world; all organisations land within
// 2x of the best (the paper's "little difference between the models").
func (m *Models) CheckShape() []string {
	var bad []string
	best := m.Rows[0].Elapsed
	for _, r := range m.Rows {
		if r.Elapsed < best {
			best = r.Elapsed
		}
	}
	for _, r := range m.Rows {
		if float64(r.Elapsed) > 2*float64(best) {
			bad = append(bad, fmt.Sprintf("%q (%s) more than 2x the best (%s)",
				r.Name, stats.Seconds(r.Elapsed), stats.Seconds(best)))
		}
	}
	if m.Rows[2].Elapsed > m.Rows[0].Elapsed {
		bad = append(bad, "semi-distributed heap slower than stop-the-world on a GC-heavy program")
	}
	return bad
}

// String implements fmt.Stringer.
func (m *Models) String() string {
	s := m.Render()
	if bad := m.CheckShape(); len(bad) > 0 {
		s += "SHAPE VIOLATIONS:\n  " + strings.Join(bad, "\n  ") + "\n"
	} else {
		s += "shape: OK\n"
	}
	return s
}
