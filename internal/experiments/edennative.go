package experiments

import (
	"fmt"
	"runtime"

	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/stats"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// EdenNativeRow is one head-to-head measurement: a workload at a
// parallelism degree (GpH workers or Eden PEs), on real goroutines, in
// wall-clock time. The communication columns are zero for the GpH rows
// — a shared heap ships no messages — which is exactly the contrast
// the paper's §V tables draw.
type EdenNativeRow struct {
	// Runtime is "gph-native" (shared-heap work stealing) or
	// "eden-native" (distributed-heap PEs).
	Runtime  string `json:"runtime"`
	Workload string `json:"workload"`
	// Parallelism is the worker count (GpH) or PE count (Eden).
	Parallelism int   `json:"parallelism"`
	WallNS      int64 `json:"wall_ns"`
	// Messages / BytesSent are the Eden rows' communication volume.
	Messages  int64 `json:"messages"`
	BytesSent int64 `json:"bytes_sent"`
	Processes int64 `json:"processes"`
	// GCCycles/GCPauseNS/GCBytesAlloc are the run-level Go GC telemetry
	// (the collector is global on both backends; the per-PE allocation
	// story is in PerPE).
	GCCycles     int64 `json:"gc_cycles"`
	GCPauseNS    int64 `json:"gc_pause_ns"`
	GCBytesAlloc int64 `json:"gc_bytes_alloc"`
	ResultOK     bool  `json:"result_ok"`
	// PerPE is the Eden rows' per-PE breakdown (messages, bytes,
	// threads, declared allocation, arena footprint).
	PerPE []nativeeden.PEStats `json:"per_pe,omitempty"`
}

// EdenNativeSweep is the paper's GpH-vs-Eden comparison on real
// hardware: the same three workloads run on the shared-heap native
// runtime and on the distributed-heap native Eden backend, swept over
// the same parallelism degrees.
type EdenNativeSweep struct {
	Params     Params
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Rows       []EdenNativeRow `json:"rows"`
}

// edenNativeCounts is the sweep's parallelism axis. It deliberately
// runs past typical core counts: PEs beyond GOMAXPROCS are virtual,
// timesliced by the Go scheduler the way the paper's 9- and 17-PE PVM
// configurations were timesliced by the OS.
var edenNativeCounts = []int{1, 2, 4, 8}

// RunEdenNativeSweep measures sumEuler, matmul and APSP head-to-head:
// GpH-native (work stealing over one shared graph) against Eden-native
// (isolated per-PE heaps, copy-on-send channels).
func RunEdenNativeSweep(p Params) *EdenNativeSweep {
	s := &EdenNativeSweep{Params: p, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}

	eulerWant := euler.SumTotientSieve(p.SumEulerN)
	a, b := matmul.Random(p.MatMulN, 1), matmul.Random(p.MatMulN, 2)
	matWant := matmul.MulOracle(a, b)
	g := apsp.RandomGraph(p.APSPNodes, 42, 100, 60)
	apspWant := apsp.FloydWarshall(g)

	runGpH := func(name string, workers int, main func(cfg native.Config) (*native.Result, error), check func(v any) bool) {
		res, err := main(native.Config{Workers: workers, EagerBlackholing: true})
		if err != nil {
			panic(fmt.Sprintf("experiments: gph-native %s failed: %v", name, err))
		}
		s.Rows = append(s.Rows, EdenNativeRow{
			Runtime: "gph-native", Workload: name, Parallelism: workers,
			WallNS:   res.WallNS,
			GCCycles: res.GC.Cycles, GCPauseNS: res.GC.PauseNS, GCBytesAlloc: res.GC.BytesAlloc,
			ResultOK: check(res.Value),
		})
	}
	runEden := func(name string, pes int, main func(cfg nativeeden.Config) (*nativeeden.Result, error), check func(v any) bool) {
		res, err := main(nativeeden.NewConfig(pes))
		if err != nil {
			panic(fmt.Sprintf("experiments: eden-native %s failed: %v", name, err))
		}
		s.Rows = append(s.Rows, EdenNativeRow{
			Runtime: "eden-native", Workload: name, Parallelism: pes,
			WallNS:   res.WallNS,
			Messages: res.Stats.Messages, BytesSent: res.Stats.BytesSent,
			Processes: res.Stats.Processes,
			GCCycles:  res.GC.Cycles, GCPauseNS: res.GC.PauseNS, GCBytesAlloc: res.GC.BytesAlloc,
			ResultOK: check(res.Value),
			PerPE:    res.PerPE,
		})
	}

	// Cannon's torus dimension: the largest q with q*q <= max
	// parallelism that divides the matrix (Params guarantees 12 | N).
	const q = 3

	for _, w := range edenNativeCounts {
		w := w
		runGpH("sumEuler", w, func(cfg native.Config) (*native.Result, error) {
			return native.Run(cfg, euler.Program(p.SumEulerN, p.SumEulerChunks, 0, true))
		}, func(v any) bool { return v.(int64) == eulerWant })
		runEden("sumEuler", w, func(cfg nativeeden.Config) (*nativeeden.Result, error) {
			return nativeeden.Run(cfg, euler.EdenProgram(p.SumEulerN, 8, 0))
		}, func(v any) bool { return v.(int64) == eulerWant })

		runGpH("matMul", w, func(cfg native.Config) (*native.Result, error) {
			return native.Run(cfg, matmul.BlockProgram(a, b, p.MatMulBlock, 0))
		}, func(v any) bool { return matmul.Equal(v.(matmul.Mat), matWant, 1e-9) })
		runEden("matMul", w, func(cfg nativeeden.Config) (*nativeeden.Result, error) {
			return nativeeden.Run(cfg, matmul.EdenCannonProgram(a, b, q, 0))
		}, func(v any) bool { return matmul.Equal(v.(matmul.Mat), matWant, 1e-9) })

		runGpH("apsp", w, func(cfg native.Config) (*native.Result, error) {
			return native.Run(cfg, apsp.Program(g, 0))
		}, func(v any) bool { return apsp.Equal(v.(apsp.Graph), apspWant) })
		runEden("apsp", w, func(cfg nativeeden.Config) (*nativeeden.Result, error) {
			ring := w
			if ring > p.APSPNodes {
				ring = p.APSPNodes
			}
			return nativeeden.Run(cfg, apsp.EdenRingProgram(g, ring, 0))
		}, func(v any) bool { return apsp.Equal(v.(apsp.Graph), apspWant) })
	}
	return s
}

// Render prints the head-to-head as a table, with per-runtime speedups
// relative to each runtime's own 1-way row (the paper's Figs. 3/5
// convention: each implementation against its own sequential base).
func (s *EdenNativeSweep) Render() string {
	headers := []string{"Workload", "Runtime", "Par", "Wall clock", "Speedup", "Messages", "Bytes shipped", "GCs", "GC pause", "Result"}
	base := map[string]int64{}
	for _, r := range s.Rows {
		if r.Parallelism == 1 {
			base[r.Runtime+"/"+r.Workload] = r.WallNS
		}
	}
	var rows [][]string
	for _, r := range s.Rows {
		speedup := "-"
		if b := base[r.Runtime+"/"+r.Workload]; b > 0 && r.WallNS > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(b)/float64(r.WallNS))
		}
		msgs, bytes := "-", "-"
		if r.Runtime == "eden-native" {
			msgs = fmt.Sprintf("%d", r.Messages)
			bytes = fmt.Sprintf("%d", r.BytesSent)
		}
		ok := "ok"
		if !r.ResultOK {
			ok = "WRONG"
		}
		rows = append(rows, []string{
			r.Workload, r.Runtime, fmt.Sprintf("%d", r.Parallelism),
			stats.Seconds(r.WallNS), speedup, msgs, bytes,
			fmt.Sprintf("%d", r.GCCycles), stats.Seconds(r.GCPauseNS), ok,
		})
	}
	title := fmt.Sprintf("GpH-native vs Eden-native head-to-head (wall clock; GOMAXPROCS=%d, NumCPU=%d)\n",
		s.GOMAXPROCS, s.NumCPU)
	return title + stats.Table(headers, rows)
}

// CheckShape verifies the machine-independent invariants: every result
// exact on both runtimes, and every Eden row showing the communication
// a distributed heap cannot avoid.
func (s *EdenNativeSweep) CheckShape() []string {
	var bad []string
	for _, r := range s.Rows {
		if !r.ResultOK {
			bad = append(bad, fmt.Sprintf("%s on %s at %d-way: result differs from the sequential oracle",
				r.Workload, r.Runtime, r.Parallelism))
		}
		if r.Runtime == "eden-native" && r.Parallelism > 1 && r.Messages == 0 {
			bad = append(bad, fmt.Sprintf("%s on eden-native at %d PEs: no messages recorded",
				r.Workload, r.Parallelism))
		}
	}
	return bad
}

// String implements fmt.Stringer.
func (s *EdenNativeSweep) String() string {
	out := s.Render()
	if bad := s.CheckShape(); len(bad) > 0 {
		out += "SHAPE VIOLATIONS:\n"
		for _, b := range bad {
			out += "  " + b + "\n"
		}
	} else {
		out += "shape: OK (both runtimes exact; Eden rows carry real message traffic)\n"
	}
	return out
}
