// Command benchall regenerates every table and figure of the paper's
// evaluation section (§V) on the simulator, and runs the chaos soaks:
//
//	benchall             # all figures at full paper scale
//	benchall -fig 1      # just the Fig. 1 runtime table
//	benchall -quick      # scaled-down parameters (seconds, for smoke tests)
//	benchall -matmul 1008 -matmulblock 72   # paper-size matrices
//	benchall -quick -gogc 50,100,200,400,off    # + the §IV-A.1 allocation-area sweep (native, wall clock)
//	benchall -quick -chaos 500                  # seeded chaos soak (exit 1 on violations)
//	benchall -quick -cluster -chaos 16          # chaos under the cluster: supervised recovery soak
//	benchall -quick -faults "seed=7,drop=0.4" -faultbackend nativeeden   # replay one seed
//
// Output is text: runtime tables, ASCII timeline traces and speedup
// tables/charts, each followed by a shape check against the paper's
// qualitative claims. The only files written are the soak reports
// (results/CHAOS.html, results/CHAOS.json, results/CHAOS_cluster.json).
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
	"time"

	"parhask/internal/cluster"
	"parhask/internal/experiments"
	"parhask/internal/faults"
)

// options is benchall's whole command-line surface.
type options struct {
	fig                     int
	quick                   bool
	sumN, chunks            int
	matN, matB              int
	apspN, width            int
	models, latency         bool
	gogc                    string
	cluster                 bool
	transport               string
	restarts                int
	reconnect               bool
	chaosIters              int
	chaosSeed               uint64
	faultSpec, faultBackend string
	deadline                time.Duration
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
	fs.BoolVar(&o.cluster, "cluster", false, "with -chaos N: run the chaos-under-cluster soak (supervised multi-process runs) instead of the in-process one")
	fs.StringVar(&o.transport, "transport", "tcp", "chaos-under-cluster transport: tcp | unix")
	fs.IntVar(&o.restarts, "restarts", 2, "cluster restart budget per supervised run in the chaos-under-cluster soak")
	fs.BoolVar(&o.reconnect, "reconnect", true, "cluster: let workers whose links break redial and resume in place")
	fs.IntVar(&o.chaosIters, "chaos", 0, "run an N-iteration seeded chaos soak over both native backends instead of the figures (writes results/CHAOS.html + .json; exits non-zero on violations)")
	fs.Uint64Var(&o.chaosSeed, "chaosseed", 42, "chaos soak master seed")
	fs.StringVar(&o.faultSpec, "faults", "", "replay one fault-injected run from a spec (internal/faults grammar) instead of the figures")
	fs.StringVar(&o.faultBackend, "faultbackend", "native", "backend for the -faults replay: native | nativeeden")
	fs.DurationVar(&o.deadline, "deadline", 0, "deadlock-watchdog deadline for -faults replays (0 = the soak's 10s default)")
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
	if o.faultSpec != "" || o.deadline != 0 {
		if _, err := faults.CLIInjector(o.faultSpec, o.deadline, "native"); err != nil {
			return p, nil, err
		}
		p.FaultSpec = o.faultSpec
		p.Deadline = o.deadline
	}
	if o.faultBackend != "native" && o.faultBackend != "nativeeden" {
		return p, nil, fmt.Errorf("unknown -faultbackend %q (want native or nativeeden)", o.faultBackend)
	}
	if o.chaosIters < 0 {
		return p, nil, errors.New("-chaos must be non-negative")
	}
	if o.cluster {
		if o.chaosIters == 0 {
			return p, nil, errors.New("-cluster modifies -chaos N; the cluster's wall-clock rows are `go run ./benchmark --workload cluster_ring`")
		}
		// The soak spawns real processes, so a bad transport must die
		// before the first one does.
		if err := cluster.CheckFlags("eden", 1, o.transport, o.restarts); err != nil {
			return p, nil, err
		}
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

	// Chaos modes run standalone (no figures): a single replay, a full
	// soak, or both. The soak's exit code is its verdict, so CI can use
	// it as a hard gate.
	if o.faultSpec != "" || o.chaosIters > 0 {
		exit := 0
		if o.faultSpec != "" {
			row := experiments.ReplayFault(p, o.faultBackend)
			fmt.Printf("fault replay on %s: %s\n  spec   %s\n", row.Backend, row.Outcome, row.Spec)
			if row.Detail != "" {
				fmt.Printf("  detail %s\n", row.Detail)
			}
			if row.Outcome == experiments.ChaosViolation {
				exit = 1
			}
		}
		if o.cluster { // validate: only with -chaos N
			// Chaos under the cluster: supervised multi-process runs with
			// ranks killed, flapped, severed and wedged. The soak report is
			// the recovery-trace artifact.
			c := experiments.RunClusterChaos(p, o.chaosIters, o.chaosSeed, o.transport, o.restarts, o.reconnect)
			fmt.Println(c.String())
			if data, err := c.JSON(); err == nil {
				writeResult("CHAOS_cluster.json", data)
			}
			if c.Violations > 0 {
				exit = 1
			}
		} else if o.chaosIters > 0 {
			s := experiments.RunChaosSoak(p, o.chaosIters, o.chaosSeed)
			fmt.Println(s.String())
			writeResult("CHAOS.html", s.HTML())
			if data, err := s.JSON(); err == nil {
				writeResult("CHAOS.json", data)
			}
			if s.Violations > 0 {
				exit = 1
			}
		}
		os.Exit(exit)
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
