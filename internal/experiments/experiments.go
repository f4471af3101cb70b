// Package experiments reproduces every table and figure in the paper's
// evaluation section (§V). Each RunFigN function executes the same
// program versions the paper measured, at the same (or explicitly
// scaled) parameters, and reports the same quantities: runtimes (Fig. 1),
// per-capability traces (Figs. 2, 4) and relative speedup curves
// (Figs. 3, 5). Each result carries a CheckShape method that verifies
// the paper's qualitative claims against the measured numbers.
package experiments

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// Params scales the experiments. Defaults() is full paper scale;
// Quick() is small enough for unit tests.
type Params struct {
	// SumEulerN is the sumEuler input bound (paper: 15000).
	SumEulerN int
	// SumEulerChunks is the number of GpH chunks the input is split into.
	SumEulerChunks int
	// MatMulN is the matrix dimension. The paper uses 1000 (traces,
	// Fig. 4) and 2000 (speedups, Fig. 3); the default here is 400 so a
	// full reproduction finishes in minutes — the -size flags of
	// cmd/matmul and cmd/benchall restore the paper sizes.
	MatMulN int
	// MatMulBlock is the GpH spark granularity (result block edge).
	MatMulBlock int
	// APSPNodes is the shortest-paths graph size (paper: 400).
	APSPNodes int
	// Cores8 is the small machine (paper: 8-core Intel).
	Cores8 int
	// CoreCounts are the x-axis of the speedup figures on the large
	// machine (paper: 16-core AMD).
	CoreCounts []int
	// TraceWidth is the column width of rendered timelines.
	TraceWidth int
}

// Defaults returns full paper-scale parameters (with the documented
// matmul scaling).
func Defaults() Params {
	return Params{
		SumEulerN:      15000,
		SumEulerChunks: 300,
		MatMulN:        396, // ≈400; divisible by both 3 and 4 for the Fig. 4 tori
		MatMulBlock:    33,
		APSPNodes:      400,
		Cores8:         8,
		CoreCounts:     []int{1, 2, 4, 6, 8, 12, 16},
		TraceWidth:     100,
	}
}

// Quick returns scaled-down parameters for tests.
func Quick() Params {
	return Params{
		SumEulerN:      1200,
		SumEulerChunks: 24,
		MatMulN:        96,
		MatMulBlock:    24,
		APSPNodes:      64,
		Cores8:         8,
		CoreCounts:     []int{1, 2, 4, 8},
		TraceWidth:     80,
	}
}

// gphVariant names one GpH runtime configuration from the paper.
type gphVariant struct {
	Name string
	Make func(cores int) gph.Config
}

// gphVariants are the four GpH rows of Fig. 1 in order.
func gphVariants() []gphVariant {
	return []gphVariant{
		{"GpH plain GHC-6.9", gph.PlainGHC69},
		{"GpH big allocation area", gph.BigAllocArea},
		{"GpH improved GC sync", gph.ImprovedSync},
		{"GpH work stealing", gph.WorkStealingConfig},
	}
}

// runGpH executes a GpH program, failing loudly on simulation errors.
func runGpH(cfg gph.Config, main func(*rts.Ctx) graph.Value) *gph.Result {
	res, err := gph.Run(cfg, main)
	if err != nil {
		panic(fmt.Sprintf("experiments: gph run failed: %v", err))
	}
	return res
}

// runEden executes an Eden program, failing loudly on simulation errors.
func runEden(cfg eden.Config, main pe.Program) *eden.Result {
	res, err := eden.Run(cfg, main)
	if err != nil {
		panic(fmt.Sprintf("experiments: eden run failed: %v", err))
	}
	return res
}

// sumEulerGpH runs the GpH sumEuler program under cfg.
func sumEulerGpH(p Params, cfg gph.Config) *gph.Result {
	return runGpH(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
}

// sumEulerEden runs the Eden sumEuler program on pes PEs over cores
// (eight statically-assigned chunks per PE, unshuffled — static
// distribution with the mild residual imbalance of the paper's trace e).
func sumEulerEden(p Params, pes, cores int) *eden.Result {
	cfg := eden.NewConfig(pes, cores)
	return runEden(cfg, euler.EdenProgram(p.SumEulerN, 8, cfg.Costs.GCDIter))
}

// matmulGpH runs the blockwise GpH matrix multiplication under cfg.
func matmulGpH(p Params, cfg gph.Config, a, b matmul.Mat) *gph.Result {
	cfg.ResidentBytes = 3 * matmul.Bytes(p.MatMulN)
	return runGpH(cfg, matmul.GpHBlockProgram(a, b, p.MatMulBlock, cfg.Costs.MulAdd))
}

// apspGpH runs the GpH shortest-paths program under cfg.
func apspGpH(p Params, cfg gph.Config, g apsp.Graph) *gph.Result {
	cfg.ResidentBytes = 2 * apsp.Bytes(p.APSPNodes)
	return runGpH(cfg, apsp.GpHProgram(g, cfg.Costs.MinPlus))
}

// apspEden runs the ring shortest-paths program with ring size = cores.
func apspEden(p Params, ring, cores int, g apsp.Graph) *eden.Result {
	cfg := eden.NewConfig(ring+1, cores)
	return runEden(cfg, apsp.EdenRingProgram(g, ring, cfg.Costs.MinPlus))
}

// cannonQ picks the torus dimension for a core count: the smallest q
// with q² >= cores, exploiting Eden's virtual-PE timeslicing (which the
// paper found can even be beneficial).
func cannonQ(cores int) int {
	q := 1
	for q*q < cores {
		q++
	}
	return q
}
