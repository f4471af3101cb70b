package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/stats"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// GOGCRow is one measurement of the allocation-area experiment: a
// workload, a GOGC setting (the Go analogue of GHC's nursery size), a
// worker count, and what the GC did while the run executed.
type GOGCRow struct {
	Workload   string
	GOGC       string // "50".."400", or "off"
	Workers    int
	WallNS     int64
	GCCycles   int64
	GCPauseNS  int64
	BytesAlloc int64
	Speedup    float64 // vs 1 worker at the same GOGC
	ResultOK   bool
}

// GOGCSweep reproduces the paper's §IV-A.1 allocation-area-size
// experiment on real hardware: GHC 6.10's fix was bigger per-capability
// allocation areas, which bought parallel speedup by collecting less
// often; here GOGC scales how much the heap may grow between
// collections, so sweeping it turns GC frequency into the independent
// variable and wall-clock speedup into the measured one.
type GOGCSweep struct {
	GOMAXPROCS int
	NumCPU     int
	Rows       []GOGCRow
}

// ParseGOGCList parses a benchall-style -gogc list such as
// "50,100,200,400,off" into SetGCPercent values (off = native.GCOff).
func ParseGOGCList(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if strings.EqualFold(f, "off") {
			out = append(out, native.GCOff)
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("gogc: bad setting %q (want a positive percent or \"off\")", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gogc: empty setting list")
	}
	return out, nil
}

// gogcName renders a SetGCPercent value for the table.
func gogcName(v int) string {
	if v == native.GCOff {
		return "off"
	}
	return strconv.Itoa(v)
}

// gogcWorkerCounts is the speedup pair measured per setting.
var gogcWorkerCounts = []int{1, 8}

// RunGOGCSweep measures the list-allocating sumEuler and blockwise
// matmul at each GOGC setting, at 1 worker and at 8, recording GC
// cycles, pause time and the wall-clock speedup per setting.
func RunGOGCSweep(p Params, settings []int) *GOGCSweep {
	s := &GOGCSweep{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}

	eulerWant := euler.SumTotientSieve(p.SumEulerN)
	a, b := matmul.Random(p.MatMulN, 1), matmul.Random(p.MatMulN, 2)
	matWant := matmul.MulOracle(a, b)

	workloads := []struct {
		name  string
		prog  func() exec.Program
		check func(v graph.Value) bool
	}{
		// sumEuler with the list-allocating φ kernel: the Go
		// transcription of the Haskell program's per-φ garbage, so the
		// GC target actually has allocation to govern (the scheduler
		// benchmarks use the direct kernel, one small table a chunk,
		// which no GOGC setting can affect).
		{"sumEuler-list",
			func() exec.Program { return euler.AllocProgram(p.SumEulerN, p.SumEulerChunks) },
			func(v graph.Value) bool { return v.(int64) == eulerWant }},
		{"matMul-block",
			func() exec.Program { return matmul.BlockProgram(a, b, p.MatMulBlock, 0) },
			func(v graph.Value) bool { return matmul.Equal(v.(matmul.Mat), matWant, 1e-9) }},
	}

	for _, wl := range workloads {
		for _, gogc := range settings {
			var base int64
			for _, workers := range gogcWorkerCounts {
				cfg := native.Config{Workers: workers, EagerBlackholing: true, GCPercent: gogc}
				// Settle the heap so each row charges only its own
				// garbage to the configured target, not the previous
				// row's leftovers.
				runtime.GC()
				res, err := native.Run(cfg, wl.prog())
				if err != nil {
					panic(fmt.Sprintf("experiments: gogc %s %s failed: %v", wl.name, gogcName(gogc), err))
				}
				if workers == gogcWorkerCounts[0] {
					base = res.WallNS
				}
				speedup := 0.0
				if base > 0 && res.WallNS > 0 {
					speedup = float64(base) / float64(res.WallNS)
				}
				s.Rows = append(s.Rows, GOGCRow{
					Workload:   wl.name,
					GOGC:       gogcName(gogc),
					Workers:    workers,
					WallNS:     res.WallNS,
					GCCycles:   res.GC.Cycles,
					GCPauseNS:  res.GC.PauseNS,
					BytesAlloc: res.GC.BytesAlloc,
					Speedup:    speedup,
					ResultOK:   wl.check(res.Value),
				})
			}
		}
	}
	return s
}

// Render prints the sweep as a table.
func (s *GOGCSweep) Render() string {
	headers := []string{"Workload", "GOGC", "Workers", "Wall clock", "Speedup", "GCs", "GC pause", "Alloc MB", "Result"}
	var rows [][]string
	for _, r := range s.Rows {
		ok := "ok"
		if !r.ResultOK {
			ok = "WRONG"
		}
		rows = append(rows, []string{
			r.Workload, r.GOGC, fmt.Sprintf("%d", r.Workers),
			stats.Seconds(r.WallNS), fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.GCCycles), stats.Seconds(r.GCPauseNS),
			fmt.Sprintf("%.1f", float64(r.BytesAlloc)/(1<<20)), ok,
		})
	}
	title := fmt.Sprintf("GOGC sweep — allocation-area experiment (§IV-A.1; GOMAXPROCS=%d, NumCPU=%d)\n",
		s.GOMAXPROCS, s.NumCPU)
	return title + stats.Table(headers, rows)
}

// CheckShape verifies the machine-independent invariants: every result
// exact, and no setting collects more often than a smaller one by more
// than noise — concretely, GC off must not run more cycles than the
// smallest GOGC setting of the same workload/worker pair.
func (s *GOGCSweep) CheckShape() []string {
	var bad []string
	minCycles := map[string]int64{}
	offCycles := map[string]int64{}
	for _, r := range s.Rows {
		if !r.ResultOK {
			bad = append(bad, fmt.Sprintf("%s at GOGC=%s, %d workers: result differs from the oracle",
				r.Workload, r.GOGC, r.Workers))
		}
		key := fmt.Sprintf("%s/%d", r.Workload, r.Workers)
		if r.GOGC == "off" {
			offCycles[key] = r.GCCycles
		} else if c, ok := minCycles[key]; !ok || r.GCCycles < c {
			minCycles[key] = r.GCCycles
		}
	}
	for key, off := range offCycles {
		if m, ok := minCycles[key]; ok && off > m {
			bad = append(bad, fmt.Sprintf("%s: GC off ran %d cycles, more than the best finite setting's %d",
				key, off, m))
		}
	}
	return bad
}

// String implements fmt.Stringer.
func (s *GOGCSweep) String() string {
	out := s.Render()
	if bad := s.CheckShape(); len(bad) > 0 {
		out += "SHAPE VIOLATIONS:\n"
		for _, b := range bad {
			out += "  " + b + "\n"
		}
	} else {
		out += "shape: OK (all results exact; GC off collects least)\n"
	}
	return out
}
