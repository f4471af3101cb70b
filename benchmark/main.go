// Command benchmark is the repository's yardstick: five workloads, the
// end-to-end metrics a user of the runtimes would see, and a per-layer
// map that says where the time of each went. BENCHMARK.json names every
// metric; README.md says how the layers and the end-to-end numbers relate.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark --workload gph_apsp --seed 7 --seconds 20 --trace 0
//	go run ./benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parhask/internal/cluster"
)

func main() {
	// cluster_ring re-executes this binary as its worker processes.
	cluster.MaybeWorker()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run one workload (default: the whole suite, each run in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and the served request order")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: trace the run, print the per-layer metrics and write the span file")
	runs := flag.Int("runs", 1, "suite: untraced runs per workload, each with another seed")
	out := flag.String("out", "", "suite: where to write the result set (default benchmark/out/suite.json)")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload == "" {
		if err := runSuite(spec, *seed, *seconds, *runs, *out); err != nil {
			fatal(err)
		}
		return
	}
	rc := &runCtx{spec: spec, seed: *seed, seconds: *seconds, traced: *trace != 0,
		p: parallelism(), sz: fullSizes()}
	rep, err := runOne(rc, *workload)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	path := filepath.Join(spec.outDir(), rep.fileName())
	if err := writeJSONFile(path, rep); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// workloads lists the five in BENCHMARK.json's order.
var workloads = []struct {
	name string
	run  func(rc *runCtx) (*runResult, error)
}{
	{"gph_sumeuler", func(rc *runCtx) (*runResult, error) { return runBatch(rc, gphSumEuler) }},
	{"gph_apsp", func(rc *runCtx) (*runResult, error) { return runBatch(rc, gphAPSP) }},
	{"eden_torus", func(rc *runCtx) (*runResult, error) { return runBatch(rc, edenTorus) }},
	{"cluster_ring", func(rc *runCtx) (*runResult, error) { return runBatch(rc, clusterRing) }},
	{"serve_mix", runServeMix},
}

// layerRatios are the job-derived ratios that belong to one runtime
// each; they read 0 on a workload that does not run that runtime.
var layerRatios = []string{
	"native.overhead_x", "native.speedup_x", "nativeeden.overhead_x", "nativeeden.speedup_x",
	"cluster.overhead_x", "serve.rejected_share", "serve.queue_share", "serve.run_share", "serve.gateway_share",
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run has to say; the last stdout line is the
// part of it the acceptance contract fixes (see result).
type report struct {
	Provenance provenance       `json:"provenance"`
	Workload   string           `json:"workload"`
	Traced     bool             `json:"traced"`
	Seconds    float64          `json:"seconds"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Flags      []string         `json:"flags,omitempty"`
	Samples    map[string]int   `json:"samples"`   // jobs behind each percentile, by phase
	JobSP99    float64          `json:"job_s_p99"` // printed, never gated: it moved 25% between identical runs
	Metrics    map[string]value `json:"metrics"`
	TraceFile  string           `json:"trace_file,omitempty"`
	// JobSeconds are the raw job times by phase, in submission order.
	JobSeconds map[string][]float64 `json:"job_seconds"`
}

func (r *report) fileName() string {
	if r.Traced {
		return r.Workload + ".traced.json"
	}
	return r.Workload + ".untraced.json"
}

// result is the contract's last line.
func (r *report) result() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

func (r *report) print(w *os.File) {
	mode := "untraced (end-to-end metrics)"
	if r.Traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "# %s  %s  %.0fs\n# %s\n", r.Workload, mode, r.Seconds, r.Provenance)
	phases := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		phases = append(phases, k)
	}
	sort.Strings(phases)
	var ns []string
	for _, k := range phases {
		ns = append(ns, fmt.Sprintf("%s=%d", k, r.Samples[k]))
	}
	fmt.Fprintf(w, "# samples: %s; job_s_p99=%.6g s (not gated)\n", strings.Join(ns, " "), r.JobSP99)
	for _, f := range r.Flags {
		fmt.Fprintf(w, "# FLAG %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		note := ""
		if v.Value == 0 && strings.HasSuffix(k, "speedup_x") && r.Provenance.NumCPU == 1 {
			note = "  (unmeasurable: one CPU)"
		}
		fmt.Fprintf(w, "%-40s %14.6g %s%s\n", k, v.Value, v.Unit, note)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "# spans: %s\n", r.TraceFile)
	}
}

// runOne runs one workload once and names its metrics.
func runOne(rc *runCtx, name string) (*report, error) {
	var run func(rc *runCtx) (*runResult, error)
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	restore, err := socketsInCheckout(rc.spec)
	if err != nil {
		return nil, err
	}
	defer restore()
	prov := newProvenance(rc.seed)
	if rc.traced {
		rc.spans = newSpanRec()
	}
	res, err := run(rc)
	if err != nil {
		return nil, err
	}
	full := res.samples["full"]
	if len(full) == 0 {
		return nil, fmt.Errorf("%s: no full-phase job succeeded (%d of %d failed)", name, res.failed, res.attempted)
	}
	rep := &report{Provenance: prov, Workload: name, Traced: rc.traced, Seconds: rc.seconds,
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Flags: res.flags,
		Samples: map[string]int{}, JobSP99: quantile(full, 0.99), Metrics: map[string]value{},
		JobSeconds: res.samples}
	for k, xs := range res.samples {
		rep.Samples[k] = len(xs)
	}

	var specs []metricSpec
	vals := map[string]float64{}
	if rc.traced {
		specs = rc.spec.PerLayer
		for _, k := range layerRatios {
			vals[k] = 0
		}
		for k, v := range res.layer {
			vals[k] = v
		}
		vals["eventlog.enabled_overhead_x"] = ratio(median(res.samples["full_traced"]), median(res.samples["full_untraced"]))
		if err := runProbes(rc, vals); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		path, err := writeTraceFile(rc.spec.outDir(), name, prov, rc.spans.finish())
		if err != nil {
			return nil, err
		}
		rep.TraceFile = path
	} else {
		specs = rc.spec.EndToEnd
		vals["setup_s"] = median(res.setupS)
		vals["job_s_p50"] = median(full)
		vals["job_s_p90"] = quantile(full, 0.9)
		vals["job1_s_p50"] = median(res.samples["one"])
		vals["jobs_per_s"] = float64(len(full)) / res.fullWallS
		vals["cpu_s_per_job"] = res.fullCPUS / float64(len(full))
		vals["retained_heap_mb"] = res.retainedMB
	}
	// BENCHMARK.json is the list; a value without a row there, or a row
	// without a value, is a bug in this package, not something to print.
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", name, s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, s.Name, v)
		}
		rep.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
		delete(vals, s.Name)
	}
	for k := range vals {
		return nil, fmt.Errorf("%s: measured %s, which BENCHMARK.json does not list", name, k)
	}
	return rep, nil
}

// socketsInCheckout points TMPDIR at benchmark/out/tmp, so cluster.Run's
// unix sockets land inside the checkout — unless that path is too long
// for a socket address, in which case the system default stays.
func socketsInCheckout(spec *benchSpec) (restore func(), err error) {
	dir := filepath.Join(spec.outDir(), "tmp")
	const sockName = "/parhask-cluster-0000000000/coord.sock"
	if len(dir)+len(sockName) > 100 { // sun_path is 108 bytes on Linux
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	old, had := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", dir)
	return func() {
		if had {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
		os.RemoveAll(dir)
	}, nil
}
