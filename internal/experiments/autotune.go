package experiments

import (
	"fmt"
	"runtime"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/stats"
	"parhask/internal/tune"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// AutotuneRow is one measurement of the self-tuning experiment: a
// workload at a worker count, run either with the paper's hand-tuned
// granularity ("hand") or under the online controller ("auto"). Auto
// rows carry the controller's full report — the decision trace and the
// final position of every lever — which CheckShape holds to its form.
type AutotuneRow struct {
	Workload        string
	Workers         int
	Mode            string // "hand" | "auto"
	WallNS          int64
	Steals          int64
	SparksConverted int64
	Parks           int64
	ResultOK        bool
	// GrainMin/GrainMax are the splitter bounds the controller was
	// given (auto rows only) — CheckShape asserts the final grain
	// stayed inside them.
	GrainMin int
	GrainMax int
	// Report is the controller's account: decision trace plus final
	// lever positions (auto rows only).
	Report *native.AutotuneReport
}

// AutotuneSweep is the self-tuning experiment (benchall -autotune):
// each workload measured with its best hand-tuned static granularity
// and again under the online controller, side by side, at the same
// worker counts. The point is not that auto always wins — it is that
// the controller lands in the same ballpark as hand-tuning without
// being told the chunk size, and the decision trace shows how.
type AutotuneSweep struct {
	GOMAXPROCS int
	NumCPU     int
	Rows       []AutotuneRow
}

// autotuneWorkerCounts is the sweep's x-axis: the serial baseline and
// the full machine.
var autotuneWorkerCounts = []int{1, 8}

// autotuneTick is the controller cadence for the sweep: fast enough
// that even the -quick workloads see several observation windows.
const autotuneTick = 2 * time.Millisecond

// RunAutotuneSweep measures sumEuler, blockwise matmul and APSP with
// hand-tuned chunking and under the online controller.
func RunAutotuneSweep(p Params) *AutotuneSweep {
	s := &AutotuneSweep{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}

	eulerWant := euler.SumTotientSieve(p.SumEulerN)
	a, b := matmul.Random(p.MatMulN, 1), matmul.Random(p.MatMulN, 2)
	matWant := matmul.MulOracle(a, b)
	g := apsp.RandomGraph(p.APSPNodes, 42, 100, 60)
	apspWant := apsp.FloydWarshall(g)

	apspGrain := p.APSPNodes / 8
	if apspGrain < 1 {
		apspGrain = 1
	}

	workloads := []struct {
		name     string
		hand     func() exec.Program
		splitter func() *tune.Splitter
		auto     func(sp *tune.Splitter) exec.Program
		check    func(v graph.Value) bool
	}{
		{"sumEuler",
			func() exec.Program { return euler.Program(p.SumEulerN, p.SumEulerChunks, 0, true) },
			func() *tune.Splitter {
				return tune.NewSplitter("sumeuler", p.SumEulerN/p.SumEulerChunks, 1, p.SumEulerN)
			},
			func(sp *tune.Splitter) exec.Program { return euler.AutoProgram(p.SumEulerN, sp) },
			func(v graph.Value) bool { return v.(int64) == eulerWant }},
		{"matMul-block",
			func() exec.Program { return matmul.BlockProgram(a, b, p.MatMulBlock, 0) },
			func() *tune.Splitter {
				return tune.NewSplitter("matmul", p.MatMulBlock*p.MatMulBlock, 1, p.MatMulN*p.MatMulN)
			},
			func(sp *tune.Splitter) exec.Program { return matmul.AutoBlockProgram(a, b, sp, 0) },
			func(v graph.Value) bool { return matmul.Equal(v.(matmul.Mat), matWant, 1e-9) }},
		{"apsp",
			func() exec.Program { return apsp.Program(g, 0) },
			func() *tune.Splitter { return tune.NewSplitter("apsp", apspGrain, 1, p.APSPNodes) },
			func(sp *tune.Splitter) exec.Program { return apsp.AutoProgram(g, sp, 0) },
			func(v graph.Value) bool { return apsp.Equal(v.(apsp.Graph), apspWant) }},
	}

	for _, wl := range workloads {
		for _, w := range autotuneWorkerCounts {
			// The hand-tuned baseline: static chunking, fixed backoff.
			cfg := native.Config{Workers: w, EagerBlackholing: true}
			res, err := native.Run(cfg, wl.hand())
			if err != nil {
				panic(fmt.Sprintf("experiments: autotune hand %s failed: %v", wl.name, err))
			}
			s.Rows = append(s.Rows, autotuneRow(wl.name, w, "hand", res, wl.check, nil))

			// The same workload under the controller: the splitter is
			// the granularity lever, backoff adapts, parking may engage.
			sp := wl.splitter()
			cfg.Autotune = &native.AutotuneConfig{
				Controller: tune.ControllerConfig{Tick: autotuneTick},
				Splitters:  []*tune.Splitter{sp},
			}
			res, err = native.Run(cfg, wl.auto(sp))
			if err != nil {
				panic(fmt.Sprintf("experiments: autotune auto %s failed: %v", wl.name, err))
			}
			s.Rows = append(s.Rows, autotuneRow(wl.name, w, "auto", res, wl.check, sp))
		}
	}
	return s
}

// autotuneRow packages one run into a row.
func autotuneRow(name string, workers int, mode string, res *native.Result,
	check func(v graph.Value) bool, sp *tune.Splitter) AutotuneRow {
	row := AutotuneRow{
		Workload:        name,
		Workers:         workers,
		Mode:            mode,
		WallNS:          res.WallNS,
		Steals:          res.Stats.Steals,
		SparksConverted: res.Stats.SparksConverted,
		Parks:           res.Stats.Parks,
		ResultOK:        check(res.Value),
		Report:          res.Autotune,
	}
	if sp != nil {
		row.GrainMin, row.GrainMax = sp.Bounds()
	}
	return row
}

// Render prints the sweep as a table: hand and auto rows interleaved
// per workload/worker pair, with the auto wall clock expressed as a
// ratio of the hand-tuned one.
func (s *AutotuneSweep) Render() string {
	headers := []string{"Workload", "Workers", "Mode", "Wall clock", "vs hand", "Sparks", "Steals", "Decisions", "Grain", "Parks", "Result"}
	hand := map[string]int64{}
	for _, r := range s.Rows {
		if r.Mode == "hand" {
			hand[fmt.Sprintf("%s/%d", r.Workload, r.Workers)] = r.WallNS
		}
	}
	var rows [][]string
	for _, r := range s.Rows {
		vs := "-"
		if r.Mode == "auto" {
			if b := hand[fmt.Sprintf("%s/%d", r.Workload, r.Workers)]; b > 0 && r.WallNS > 0 {
				vs = fmt.Sprintf("%.2fx", float64(r.WallNS)/float64(b))
			}
		}
		decisions, grain := "-", "-"
		if r.Report != nil {
			decisions = fmt.Sprintf("%d", len(r.Report.Decisions))
			for _, gr := range r.Report.Grains {
				grain = fmt.Sprintf("%d", gr)
			}
		}
		ok := "ok"
		if !r.ResultOK {
			ok = "WRONG"
		}
		rows = append(rows, []string{
			r.Workload, fmt.Sprintf("%d", r.Workers), r.Mode,
			stats.Seconds(r.WallNS), vs,
			fmt.Sprintf("%d", r.SparksConverted), fmt.Sprintf("%d", r.Steals),
			decisions, grain, fmt.Sprintf("%d", r.Parks), ok,
		})
	}
	title := fmt.Sprintf("Self-tuning sweep — hand-tuned vs online controller (GOMAXPROCS=%d, NumCPU=%d)\n",
		s.GOMAXPROCS, s.NumCPU)
	return title + stats.Table(headers, rows)
}

// CheckShape verifies the machine-independent invariants of a tuned
// run: every result exact (the controller must never trade correctness
// for speed), every auto row carrying a controller report, every final
// grain inside the splitter's bounds, and every recorded decision
// well-formed (a known lever, a named action, and a target on chunk
// decisions). Wall-clock ratios are reported, not asserted — they
// depend on the machine.
func (s *AutotuneSweep) CheckShape() []string {
	var bad []string
	levers := map[string]bool{"chunk": true, "backoff": true, "gogc": true, "park": true}
	for _, r := range s.Rows {
		id := fmt.Sprintf("%s at %d workers (%s)", r.Workload, r.Workers, r.Mode)
		if !r.ResultOK {
			bad = append(bad, id+": result differs from the sequential oracle")
		}
		if r.Mode != "auto" {
			if r.Report != nil {
				bad = append(bad, id+": hand-tuned row carries a controller report")
			}
			continue
		}
		if r.Report == nil {
			bad = append(bad, id+": auto row has no controller report")
			continue
		}
		for name, gr := range r.Report.Grains {
			if gr < r.GrainMin || gr > r.GrainMax {
				bad = append(bad, fmt.Sprintf("%s: final grain %d of %q outside its bounds [%d,%d]",
					id, gr, name, r.GrainMin, r.GrainMax))
			}
		}
		for _, d := range r.Report.Decisions {
			if !levers[d.Lever] {
				bad = append(bad, fmt.Sprintf("%s: decision with unknown lever %q", id, d.Lever))
			}
			if d.Action == "" {
				bad = append(bad, fmt.Sprintf("%s: decision on %q with no action", id, d.Lever))
			}
			if d.Lever == "chunk" && d.Target == "" {
				bad = append(bad, id+": chunk decision without a splitter target")
			}
		}
	}
	return bad
}

// String implements fmt.Stringer.
func (s *AutotuneSweep) String() string {
	out := s.Render()
	if bad := s.CheckShape(); len(bad) > 0 {
		out += "SHAPE VIOLATIONS:\n"
		for _, b := range bad {
			out += "  " + b + "\n"
		}
	} else {
		out += "shape: OK (all results exact; grains in bounds; decision trace well-formed)\n"
	}
	return out
}
