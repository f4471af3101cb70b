// Benchmarks regenerating the paper's tables and figures, plus ablation
// benches for each design choice DESIGN.md calls out.
//
// Each benchmark iteration executes one full simulated run and reports,
// besides the usual host-side ns/op, the *virtual* runtime of the
// simulated program as "virt-ms/op" — the quantity the paper's tables
// plot. Benchmarks default to reduced problem sizes so `go test
// -bench=.` completes in minutes; set PARHASK_FULL=1 to run them at
// full paper scale (cmd/benchall always uses full scale).
//
// Everything here is virtual time. The native runtimes' wall-clock
// numbers have one writer, `go run ./benchmark` (BENCHMARK.json).
package parhask_test

import (
	"fmt"
	"os"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/experiments"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/gum"
	"parhask/internal/machine"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/sim"
	"parhask/internal/skel"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/mandel"
	"parhask/internal/workloads/matmul"
	"parhask/internal/workloads/parfib"
	"parhask/internal/workloads/queens"
)

// benchParams picks the experiment scale.
func benchParams() experiments.Params {
	if os.Getenv("PARHASK_FULL") != "" {
		return experiments.Defaults()
	}
	p := experiments.Quick()
	// Somewhat larger than test-scale so scheduler effects are visible.
	p.SumEulerN = 4000
	p.SumEulerChunks = 80
	p.MatMulN = 192
	p.MatMulBlock = 24
	p.APSPNodes = 128
	return p
}

// reportVirt attaches the virtual runtime metric.
func reportVirt(b *testing.B, totalVirtNs int64) {
	b.ReportMetric(float64(totalVirtNs)/1e6/float64(b.N), "virt-ms/op")
}

// --- Fig. 1: sumEuler runtimes, five configurations, 8 cores ---

func BenchmarkFig1SumEuler(b *testing.B) {
	p := benchParams()
	variants := []struct {
		name string
		mk   func(int) gph.Config
	}{
		{"a_plain_ghc69", gph.PlainGHC69},
		{"b_big_alloc_area", gph.BigAllocArea},
		{"c_improved_gc_sync", gph.ImprovedSync},
		{"d_work_stealing", gph.WorkStealingConfig},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := v.mk(p.Cores8)
				res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
	b.Run("e_eden_8pe", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(p.Cores8, p.Cores8)
			res, err := eden.Run(cfg, euler.EdenProgram(p.SumEulerN, 8, cfg.Costs.GCDIter))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}

// --- Fig. 2: the sumEuler traces (same runs, tracing always on) ---

func BenchmarkFig2SumEulerTraced(b *testing.B) {
	p := benchParams()
	var virt int64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFig2(p)
		for _, e := range f.Entries {
			virt += e.Elapsed
		}
		if bad := f.CheckShape(); len(bad) > 0 && os.Getenv("PARHASK_FULL") != "" {
			b.Fatalf("shape violations: %v", bad)
		}
	}
	reportVirt(b, virt)
}

// --- Fig. 3: speedup curves for sumEuler and matmul ---

func BenchmarkFig3Speedups(b *testing.B) {
	p := benchParams()
	a := matmul.Random(p.MatMulN, 101)
	bm := matmul.Random(p.MatMulN, 102)
	for _, prog := range []string{"sumeuler", "matmul"} {
		for _, cfgKind := range []string{"worksteal", "eden"} {
			for _, cores := range p.CoreCounts {
				b.Run(fmt.Sprintf("%s/%s/cores_%d", prog, cfgKind, cores), func(b *testing.B) {
					var virt int64
					for i := 0; i < b.N; i++ {
						switch {
						case prog == "sumeuler" && cfgKind == "worksteal":
							cfg := gph.WorkStealingConfig(cores)
							res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
							if err != nil {
								b.Fatal(err)
							}
							virt += res.Elapsed
						case prog == "sumeuler" && cfgKind == "eden":
							cfg := eden.NewConfig(cores, cores)
							res, err := eden.Run(cfg, euler.EdenProgram(p.SumEulerN, 8, cfg.Costs.GCDIter))
							if err != nil {
								b.Fatal(err)
							}
							virt += res.Elapsed
						case prog == "matmul" && cfgKind == "worksteal":
							cfg := gph.WorkStealingConfig(cores)
							cfg.ResidentBytes = 3 * matmul.Bytes(p.MatMulN)
							res, err := gph.Run(cfg, matmul.GpHBlockProgram(a, bm, p.MatMulBlock, cfg.Costs.MulAdd))
							if err != nil {
								b.Fatal(err)
							}
							virt += res.Elapsed
						default:
							q := 1
							for q*q < cores {
								q++
							}
							cfg := eden.NewConfig(q*q+1, cores)
							res, err := eden.Run(cfg, matmul.EdenCannonProgram(a, bm, q, cfg.Costs.MulAdd))
							if err != nil {
								b.Fatal(err)
							}
							virt += res.Elapsed
						}
					}
					reportVirt(b, virt)
				})
			}
		}
	}
}

// --- Fig. 4: matmul on 8 cores, incl. Eden virtual PEs ---

func BenchmarkFig4MatMul(b *testing.B) {
	p := benchParams()
	a := matmul.Random(p.MatMulN, 103)
	bm := matmul.Random(p.MatMulN, 104)
	gphVariants := []struct {
		name string
		mk   func(int) gph.Config
	}{
		{"a_plain", gph.PlainGHC69},
		{"b_big_alloc", gph.BigAllocArea},
		{"c_work_stealing", gph.WorkStealingConfig},
	}
	for _, v := range gphVariants {
		b.Run(v.name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := v.mk(p.Cores8)
				cfg.ResidentBytes = 3 * matmul.Bytes(p.MatMulN)
				res, err := gph.Run(cfg, matmul.GpHBlockProgram(a, bm, p.MatMulBlock, cfg.Costs.MulAdd))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
	for _, e := range []struct {
		name   string
		q, pes int
	}{{"d_eden_3x3_9pe", 3, 9}, {"e_eden_4x4_17pe", 4, 17}} {
		b.Run(e.name, func(b *testing.B) {
			if p.MatMulN%e.q != 0 {
				b.Skipf("matrix size %d not divisible by %d", p.MatMulN, e.q)
			}
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := eden.NewConfig(e.pes, p.Cores8)
				res, err := eden.Run(cfg, matmul.EdenCannonProgram(a, bm, e.q, cfg.Costs.MulAdd))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// --- Fig. 5: APSP, black-holing × scheduler × Eden ring, 8 cores ---

func BenchmarkFig5APSP(b *testing.B) {
	p := benchParams()
	g := apsp.RandomGraph(p.APSPNodes, 105, 9, 25)
	variants := []struct {
		name  string
		mk    func(int) gph.Config
		eager bool
	}{
		{"gph_lazy_bh", gph.ImprovedSync, false},
		{"gph_eager_bh", gph.ImprovedSync, true},
		{"gph_worksteal_lazy_bh", gph.WorkStealingConfig, false},
		{"gph_worksteal_eager_bh", gph.WorkStealingConfig, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := v.mk(p.Cores8)
				cfg.EagerBlackholing = v.eager
				cfg.ResidentBytes = 2 * apsp.Bytes(p.APSPNodes)
				res, err := gph.Run(cfg, apsp.GpHProgram(g, cfg.Costs.MinPlus))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
	b.Run("eden_ring", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(p.Cores8+1, p.Cores8)
			res, err := eden.Run(cfg, apsp.EdenRingProgram(g, p.Cores8, cfg.Costs.MinPlus))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}

// --- Ablations ---

// BenchmarkAblationPushVsSteal isolates the work-distribution scheme
// (everything else at the improved settings).
func BenchmarkAblationPushVsSteal(b *testing.B) {
	p := benchParams()
	for _, stealing := range []bool{false, true} {
		name := "push"
		if stealing {
			name = "steal"
		}
		b.Run(name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.ImprovedSync(p.Cores8)
				cfg.WorkStealing = stealing
				res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationSparkThread isolates dedicated spark threads vs. a
// fresh thread per spark (§IV-A.4).
func BenchmarkAblationSparkThread(b *testing.B) {
	p := benchParams()
	for _, st := range []bool{false, true} {
		name := "thread_per_spark"
		if st {
			name = "spark_thread"
		}
		b.Run(name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.WorkStealingConfig(p.Cores8)
				cfg.SparkThreads = st
				res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks*4, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationBlackholing isolates the black-holing policy on the
// shared-thunk APSP lattice (§IV-A.3).
func BenchmarkAblationBlackholing(b *testing.B) {
	p := benchParams()
	g := apsp.RandomGraph(p.APSPNodes, 105, 9, 25)
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.WorkStealingConfig(p.Cores8)
				cfg.EagerBlackholing = eager
				res, err := gph.Run(cfg, apsp.GpHProgram(g, cfg.Costs.MinPlus))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationAllocArea sweeps the allocation-area size (§IV-A.1).
func BenchmarkAblationAllocArea(b *testing.B) {
	p := benchParams()
	for _, kb := range []int64{256, 512, 2048, 8192, 32768} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			var virt int64
			var gcs int
			for i := 0; i < b.N; i++ {
				cfg := gph.PlainGHC69(p.Cores8)
				cfg.AllocArea = kb * 1024
				res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
				gcs += res.Stats.GCs
			}
			reportVirt(b, virt)
			b.ReportMetric(float64(gcs)/float64(b.N), "gcs/op")
		})
	}
}

// BenchmarkAblationBarrier isolates polling vs. wakeup GC barriers.
func BenchmarkAblationBarrier(b *testing.B) {
	p := benchParams()
	for _, wakeup := range []bool{false, true} {
		name := "polling"
		if wakeup {
			name = "wakeup"
		}
		b.Run(name, func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.BigAllocArea(p.Cores8)
				cfg.WakeupBarrier = wakeup
				res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationMsgLatency sweeps the Eden transport latency.
func BenchmarkAblationMsgLatency(b *testing.B) {
	p := benchParams()
	g := apsp.RandomGraph(p.APSPNodes, 105, 9, 25)
	for _, lat := range []int64{5_000, 45_000, 200_000, 1_000_000} {
		b.Run(fmt.Sprintf("%dus", lat/1000), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := eden.NewConfig(p.Cores8+1, p.Cores8)
				cfg.Costs.MsgLatency = lat
				res, err := eden.Run(cfg, apsp.EdenRingProgram(g, p.Cores8, cfg.Costs.MinPlus))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationVirtualPEs sweeps PE counts on a fixed 8-core machine.
func BenchmarkAblationVirtualPEs(b *testing.B) {
	p := benchParams()
	for _, pes := range []int{4, 8, 12, 16, 24} {
		b.Run(fmt.Sprintf("%dpe_8cores", pes), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := eden.NewConfig(pes, p.Cores8)
				res, err := eden.Run(cfg, euler.EdenProgram(p.SumEulerN, 8, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationBlockSize sweeps the GpH matmul spark granularity.
func BenchmarkAblationBlockSize(b *testing.B) {
	p := benchParams()
	a := matmul.Random(p.MatMulN, 103)
	bm := matmul.Random(p.MatMulN, 104)
	for _, bs := range []int{8, 16, 24, 48, 96} {
		if p.MatMulN%bs != 0 {
			continue
		}
		b.Run(fmt.Sprintf("block_%d", bs), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.WorkStealingConfig(p.Cores8)
				cfg.ResidentBytes = 3 * matmul.Bytes(p.MatMulN)
				res, err := gph.Run(cfg, matmul.GpHBlockProgram(a, bm, bs, cfg.Costs.MulAdd))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationRowVsBlock compares the paper's blockwise sparking
// against the straightforward row-parallel matmul.
func BenchmarkAblationRowVsBlock(b *testing.B) {
	p := benchParams()
	a := matmul.Random(p.MatMulN, 103)
	bm := matmul.Random(p.MatMulN, 104)
	b.Run("blocks", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := gph.WorkStealingConfig(p.Cores8)
			res, err := gph.Run(cfg, matmul.GpHBlockProgram(a, bm, p.MatMulBlock, cfg.Costs.MulAdd))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("rows", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := gph.WorkStealingConfig(p.Cores8)
			res, err := gph.Run(cfg, matmul.GpHRowProgram(a, bm, cfg.Costs.MulAdd))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}

// --- Substrate micro-benchmarks ---

func BenchmarkSimEventThroughput(b *testing.B) {
	s := sim.New(1)
	s.Spawn("ticker", func(t *sim.Task) {
		for i := 0; i < b.N; i++ {
			t.Advance(10)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMachineGPSRebalance(b *testing.B) {
	s := sim.New(1)
	m := machine.New(s, 4)
	const workers = 9
	for w := 0; w < workers; w++ {
		s.Spawn(fmt.Sprintf("w%d", w), func(t *sim.Task) {
			for i := 0; i < b.N/workers+1; i++ {
				m.Burn(t, 100)
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGpHSchedulerOverhead(b *testing.B) {
	// Cost of running many tiny sparks through the full runtime.
	var virt int64
	for i := 0; i < b.N; i++ {
		cfg := gph.WorkStealingConfig(4)
		res, err := gph.Run(cfg, func(ctx *rts.Ctx) graph.Value {
			ts := make([]*graph.Thunk, 256)
			for j := range ts {
				ts[j] = graph.NewThunk(func(c graph.Context) graph.Value {
					c.Burn(10_000)
					return 1
				})
			}
			for _, t := range ts {
				ctx.Par(t)
			}
			sum := 0
			for _, t := range ts {
				sum += ctx.Force(t).(int)
			}
			return sum
		})
		if err != nil {
			b.Fatal(err)
		}
		virt += res.Elapsed
	}
	reportVirt(b, virt)
}

func BenchmarkEdenMessageRoundTrip(b *testing.B) {
	var virt int64
	for i := 0; i < b.N; i++ {
		cfg := eden.NewConfig(2, 2)
		res, err := eden.Run(cfg, func(p pe.Ctx) graph.Value {
			in, out := p.NewChan(0)
			p.Spawn(1, "echo", func(w pe.Ctx) {
				w.Send(out, 1)
			})
			return p.Receive(in)
		})
		if err != nil {
			b.Fatal(err)
		}
		virt += res.Elapsed
	}
	reportVirt(b, virt)
}

// --- Extensions beyond the paper's measured systems ---

// BenchmarkModelComparison runs the same sumEuler program on all three
// runtime families the paper discusses: the shared-heap GpH runtime,
// the distributed-memory GUM implementation of GpH (§III-B), and Eden.
func BenchmarkModelComparison(b *testing.B) {
	p := benchParams()
	b.Run("gph_shared_heap", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := gph.WorkStealingConfig(p.Cores8)
			res, err := gph.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("gum_distributed_gph", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := gum.NewConfig(p.Cores8, p.Cores8)
			res, err := gum.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("eden_skeletons", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(p.Cores8, p.Cores8)
			res, err := eden.Run(cfg, euler.EdenProgram(p.SumEulerN, 8, cfg.Costs.GCDIter))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}

// BenchmarkFutureLocalHeaps measures the paper's §VI proposal: per-
// capability local collection vs. the stop-the-world shared heap, on a
// GC-heavy allocation profile.
func BenchmarkFutureLocalHeaps(b *testing.B) {
	p := benchParams()
	mkMain := func() func(*rts.Ctx) graph.Value {
		return euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cost_GCDIter())
	}
	for _, cores := range []int{8, 16} {
		b.Run(fmt.Sprintf("stop_the_world_%dcores", cores), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.WorkStealingConfig(cores)
				res, err := gph.Run(cfg, mkMain())
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
		b.Run(fmt.Sprintf("local_heaps_%dcores", cores), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.LocalHeapsConfig(cores)
				res, err := gph.Run(cfg, mkMain())
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// cost_GCDIter avoids recomputing a default model per call site.
func cost_GCDIter() int64 { return gph.WorkStealingConfig(1).Costs.GCDIter }

// BenchmarkAblationFishDelay sweeps GUM's fishing back-off.
func BenchmarkAblationFishDelay(b *testing.B) {
	p := benchParams()
	for _, d := range []int64{50_000, 300_000, 2_000_000} {
		b.Run(fmt.Sprintf("%dus", d/1000), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gum.NewConfig(p.Cores8, p.Cores8)
				cfg.FishDelay = d
				res, err := gum.Run(cfg, euler.GpHProgram(p.SumEulerN, p.SumEulerChunks, cfg.Costs.GCDIter))
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkAblationParfibThreshold sweeps the classic spark-granularity
// cutoff of parfib: too fine pays scheduling per microscopic spark, too
// coarse starves the machine.
func BenchmarkAblationParfibThreshold(b *testing.B) {
	const n = 27
	for _, th := range []int{4, 8, 12, 16, 20, 24} {
		b.Run(fmt.Sprintf("cutoff_%d", th), func(b *testing.B) {
			var virt int64
			for i := 0; i < b.N; i++ {
				cfg := gph.WorkStealingConfig(8)
				res, err := gph.Run(cfg, parfib.Program(n, th))
				if err != nil {
					b.Fatal(err)
				}
				if res.Value != parfib.Fib(n) {
					b.Fatalf("wrong fib: %v", res.Value)
				}
				virt += res.Elapsed
			}
			reportVirt(b, virt)
		})
	}
}

// BenchmarkMandelbrot compares the three distribution styles on the
// irregular Mandelbrot rows.
func BenchmarkMandelbrot(b *testing.B) {
	p := mandel.DefaultParams(192, 128)
	b.Run("gph_push", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			res, err := gph.Run(gph.ImprovedSync(8), mandel.GpHProgram(p))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("gph_steal", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			res, err := gph.Run(gph.WorkStealingConfig(8), mandel.GpHProgram(p))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("eden_masterworker", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(8, 8)
			res, err := eden.Run(cfg, mandel.EdenProgram(p, 7, 2))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("gum_fishing", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := gum.NewConfig(8, 8)
			res, err := gum.Run(cfg, mandel.GpHProgram(p))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}

// BenchmarkQueens runs the dynamic search tree on the farm runtimes.
func BenchmarkQueens(b *testing.B) {
	const n, depth = 11, 3
	b.Run("gph_steal", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			res, err := gph.Run(gph.WorkStealingConfig(8), queens.GpHProgram(n, depth))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("eden_masterworker", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(8, 8)
			res, err := eden.Run(cfg, queens.EdenProgram(n, 7, 2, depth))
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}

// BenchmarkHierarchicalMasterWorker compares a flat farm against the
// two-level hierarchy on many tiny tasks (where the single master is
// the bottleneck the hierarchy exists to remove).
func BenchmarkHierarchicalMasterWorker(b *testing.B) {
	mkTasks := func() []graph.Value {
		tasks := make([]graph.Value, 600)
		for i := range tasks {
			tasks[i] = i
		}
		return tasks
	}
	work := func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
		w.Burn(60_000)
		return nil, task
	}
	b.Run("flat_12_workers", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(13, 13)
			res, err := eden.Run(cfg, func(p pe.Ctx) graph.Value {
				return len(skel.MasterWorker(p, "flat", 12, 2, work, mkTasks()))
			})
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
	b.Run("hier_3x4_workers", func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			cfg := eden.NewConfig(16, 16)
			res, err := eden.Run(cfg, func(p pe.Ctx) graph.Value {
				return len(skel.HierMasterWorker(p, "hier", 3, 4, 2, 0, work, mkTasks()))
			})
			if err != nil {
				b.Fatal(err)
			}
			virt += res.Elapsed
		}
		reportVirt(b, virt)
	})
}
