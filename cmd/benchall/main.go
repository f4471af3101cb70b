// Command benchall regenerates every table and figure of the paper's
// evaluation section (§V) on the simulator, and runs the chaos soaks:
//
//	benchall             # all figures at full paper scale
//	benchall -fig 1      # just the Fig. 1 runtime table
//	benchall -quick      # scaled-down parameters (seconds, for smoke tests)
//	benchall -matmul 1008 -matmulblock 72   # paper-size matrices
//	benchall -quick -gogc 50,100,200,400,off    # + the §IV-A.1 allocation-area sweep (native, wall clock)
//	benchall -quick -chaos 500                  # seeded chaos soak of the in-process backends (exit 1 on violations)
//	benchall -quick -cluster -chaos 8           # the same soak on the cluster: supervised recovery
//
// Both soaks are experiments.RunChaos over a backend list. A soak row
// is a cmd/sumeuler command line, run through the driver
// (driver.Exec); its repro line is that command.
//
// Output is text: runtime tables, ASCII timeline traces and speedup
// tables/charts, each followed by a shape check against the paper's
// qualitative claims. The only files written are the soak reports,
// under results/ in the working directory: CHAOS.html and CHAOS.json
// for the in-process soak (regenerated by CI, not committed), and
// CHAOS_cluster.json for the cluster soak.
// Wall-clock results have one writer, and it is not this command: see
// `go run ./benchmark` (BENCHMARK.json, benchmark/README.md). The native
// GOGC sweep kept here prints a table and a shape line and waits for its
// benchmark row (ROADMAP item 1).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"parhask/internal/cluster"
	"parhask/internal/experiments"
)

// options is benchall's whole command-line surface.
type options struct {
	fig             int
	quick           bool
	sumN, chunks    int
	matN, matB      int
	apspN, width    int
	models, latency bool
	gogc            string
	cluster         bool
	chaosIters      int
	chaosSeed       uint64
}

// newFlags registers every benchall flag on fs.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.fig, "fig", 0, "figure to regenerate (1-5); 0 = all")
	fs.BoolVar(&o.quick, "quick", false, "use scaled-down parameters")
	fs.IntVar(&o.sumN, "sumeuler", 0, "override sumEuler bound (paper: 15000)")
	fs.IntVar(&o.chunks, "chunks", 0, "override GpH sumEuler chunk count")
	fs.IntVar(&o.matN, "matmul", 0, "override matrix size (paper: 1000/2000; must be divisible by 12 and by -matmulblock)")
	fs.IntVar(&o.matB, "matmulblock", 0, "override GpH matmul block size")
	fs.IntVar(&o.apspN, "apsp", 0, "override APSP node count (paper: 400)")
	fs.IntVar(&o.width, "width", 0, "trace width in columns")
	fs.BoolVar(&o.models, "models", false, "also run the beyond-the-paper runtime-organisation comparison")
	fs.BoolVar(&o.latency, "latency", false, "also run the shared-memory-to-cluster latency study")
	fs.StringVar(&o.gogc, "gogc", "", "comma-separated GOGC settings for the native allocation-area sweep, e.g. 50,100,200,400,off (prints a table; writes no file)")
	fs.BoolVar(&o.cluster, "cluster", false, "with -chaos N: soak the multi-process cluster (3 processes over tcp, restart budget 2; writes results/CHAOS_cluster.json) instead of the in-process backends")
	fs.IntVar(&o.chaosIters, "chaos", 0, "run an N-iteration seeded chaos soak over both native backends instead of the figures (writes results/CHAOS.html + .json; exits non-zero on violations)")
	fs.Uint64Var(&o.chaosSeed, "chaosseed", 42, "chaos soak master seed")
	return o
}

// validate turns the parsed flags into experiment parameters and the
// GOGC settings to sweep, or the usage error that makes benchall exit 2.
// Everything that can be wrong with a command line is checked here,
// before any figure, sweep or soak runs.
func (o *options) validate() (experiments.Params, []int, error) {
	p := experiments.Defaults()
	if o.quick {
		p = experiments.Quick()
	}
	if o.fig < 0 || o.fig > 5 {
		return p, nil, errors.New("-fig must be 0..5")
	}
	if o.sumN > 0 {
		p.SumEulerN = o.sumN
	}
	if o.chunks > 0 {
		p.SumEulerChunks = o.chunks
	}
	if o.matN > 0 {
		if o.matN%12 != 0 {
			return p, nil, errors.New("-matmul must be divisible by 12 (3x3 and 4x4 tori)")
		}
		p.MatMulN = o.matN
	}
	if o.matB > 0 {
		if p.MatMulN%o.matB != 0 {
			return p, nil, errors.New("-matmulblock must divide the matrix size")
		}
		p.MatMulBlock = o.matB
	}
	if o.apspN > 0 {
		p.APSPNodes = o.apspN
	}
	if o.width > 0 {
		p.TraceWidth = o.width
	}
	var gogcSettings []int
	if o.gogc != "" {
		var err error
		if gogcSettings, err = experiments.ParseGOGCList(o.gogc); err != nil {
			return p, nil, err
		}
	}
	if o.chaosIters < 0 {
		return p, nil, errors.New("-chaos must be non-negative")
	}
	if o.cluster && o.chaosIters == 0 {
		return p, nil, errors.New("-cluster modifies -chaos N; the cluster's wall-clock rows are `go run ./benchmark --workload cluster_ring`")
	}
	return p, gogcSettings, nil
}

// writeResult writes one soak artifact under results/ (cwd-relative).
func writeResult(name string, data []byte) {
	path := "results/" + name
	if err := os.MkdirAll("results", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchall: mkdir results:", err)
	} else if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchall: write %s: %v\n", path, err)
	} else {
		fmt.Println("wrote", path)
	}
}

func main() {
	// The chaos-under-cluster soak re-executes this binary as its
	// worker processes.
	cluster.MaybeWorker()
	o := newFlags(flag.CommandLine)
	flag.Parse()
	p, gogcSettings, err := o.validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchall:", err)
		os.Exit(2)
	}

	// A chaos soak runs standalone (no figures). Its exit code is its
	// verdict, so CI can use it as a hard gate.
	if o.chaosIters > 0 {
		// The cluster soak runs supervised multi-process runs with ranks
		// killed, severed and wedged, each recovered by a restart; its
		// JSON report is the recovery-trace artifact.
		backends, name := experiments.InProcessBackends, "CHAOS"
		if o.cluster {
			backends, name = experiments.ClusterBackends, "CHAOS_cluster"
		}
		s := experiments.RunChaos(p, backends, o.chaosIters, o.chaosSeed)
		fmt.Println(s.String())
		if !o.cluster {
			writeResult("CHAOS.html", s.HTML())
		}
		if data, err := s.JSON(); err == nil {
			writeResult(name+".json", data)
		}
		if s.Violations > 0 {
			os.Exit(1)
		}
		os.Exit(0)
	}

	want := func(n int) bool { return o.fig == 0 || o.fig == n }
	if want(1) {
		fmt.Println(experiments.RunFig1(p).String())
	}
	if want(2) {
		fmt.Println(experiments.RunFig2(p).String())
	}
	if want(3) {
		fmt.Println(experiments.RunFig3(p).String())
	}
	if want(4) {
		fmt.Println(experiments.RunFig4(p).String())
	}
	if want(5) {
		fmt.Println(experiments.RunFig5(p).String())
	}
	if o.models {
		fmt.Println(experiments.RunModels(p).String())
	}
	if o.latency {
		fmt.Println(experiments.RunLatencyStudy(p).String())
	}
	if len(gogcSettings) > 0 {
		fmt.Println(experiments.RunGOGCSweep(p, gogcSettings).String())
	}
}
